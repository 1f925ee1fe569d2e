//! Simulation statistics: traffic accounting, breakdowns and derived metrics.

use core::fmt;
use std::fmt::Write as _;
use std::ops::AddAssign;

/// Categories of DRAM traffic tracked separately (drives Fig. 14).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TrafficClass {
    /// Regular application data.
    Data,
    /// Encryption counter blocks.
    Counter,
    /// Per-block or per-chunk MACs.
    Mac,
    /// Bonsai Merkle Tree nodes.
    Bmt,
    /// Extra data re-fetches caused by streaming/read-only mispredictions.
    MispredictFixup,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Data,
        TrafficClass::Counter,
        TrafficClass::Mac,
        TrafficClass::Bmt,
        TrafficClass::MispredictFixup,
    ];

    /// Short label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            TrafficClass::Data => "data",
            TrafficClass::Counter => "counter",
            TrafficClass::Mac => "mac",
            TrafficClass::Bmt => "bmt",
            TrafficClass::MispredictFixup => "fixup",
        }
    }
}

/// Byte counters per traffic class.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TrafficBytes {
    /// DRAM read bytes per class (indexed by `TrafficClass::ALL` order).
    pub read: [u64; 5],
    /// DRAM write bytes per class.
    pub write: [u64; 5],
}

impl TrafficBytes {
    /// Records `bytes` of DRAM traffic for `class`.
    pub fn record(&mut self, class: TrafficClass, bytes: u64, is_write: bool) {
        let idx = class as usize;
        if is_write {
            self.write[idx] += bytes;
        } else {
            self.read[idx] += bytes;
        }
    }

    /// Total bytes for one class, reads plus writes.
    pub fn class_total(&self, class: TrafficClass) -> u64 {
        let idx = class as usize;
        self.read[idx] + self.write[idx]
    }

    /// Total bytes of regular data traffic.
    pub fn data_bytes(&self) -> u64 {
        self.class_total(TrafficClass::Data)
    }

    /// Total bytes of security-metadata traffic (everything but data).
    pub fn metadata_bytes(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| !matches!(c, TrafficClass::Data))
            .map(|&c| self.class_total(c))
            .sum()
    }

    /// Metadata traffic normalized to data traffic (Fig. 14's y-axis).
    pub fn overhead_ratio(&self) -> f64 {
        let data = self.data_bytes();
        if data == 0 {
            0.0
        } else {
            self.metadata_bytes() as f64 / data as f64
        }
    }
}

impl AddAssign for TrafficBytes {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..5 {
            self.read[i] += rhs.read[i];
            self.write[i] += rhs.write[i];
        }
    }
}

/// One [`SimStats`] value as [`SimStats::visit`] reports it and
/// [`SimStats::set`] takes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatValue {
    /// A single counter.
    Count(u64),
    /// One byte counter per traffic class, in `TrafficClass::ALL` order.
    PerClass([u64; 5]),
}

/// How one declared field appears to the visitor and the by-name setter,
/// and how much it grew since an earlier value.
trait StatField {
    fn visit(&self, name: &'static str, f: &mut impl FnMut(&'static str, StatValue));
    fn set(&mut self, name: &'static str, key: &str, value: StatValue) -> bool;
    fn since(&self, earlier: &Self) -> Self;
}

impl StatField for u64 {
    fn visit(&self, name: &'static str, f: &mut impl FnMut(&'static str, StatValue)) {
        f(name, StatValue::Count(*self));
    }

    fn since(&self, earlier: &Self) -> Self {
        self - earlier
    }

    fn set(&mut self, name: &'static str, key: &str, value: StatValue) -> bool {
        match value {
            StatValue::Count(v) if key == name => *self = v,
            _ => return false,
        }
        true
    }
}

/// Traffic appears as its two per-class arrays, `read` and `write`.
impl StatField for TrafficBytes {
    fn visit(&self, _: &'static str, f: &mut impl FnMut(&'static str, StatValue)) {
        f("read", StatValue::PerClass(self.read));
        f("write", StatValue::PerClass(self.write));
    }

    fn set(&mut self, _: &'static str, key: &str, value: StatValue) -> bool {
        match (key, value) {
            ("read", StatValue::PerClass(v)) => self.read = v,
            ("write", StatValue::PerClass(v)) => self.write = v,
            _ => return false,
        }
        true
    }

    fn since(&self, earlier: &Self) -> Self {
        TrafficBytes {
            read: std::array::from_fn(|i| self.read[i] - earlier.read[i]),
            write: std::array::from_fn(|i| self.write[i] - earlier.write[i]),
        }
    }
}

/// Declares every [`SimStats`] field once; the struct, [`SimStats::visit`],
/// [`SimStats::set`] and [`SimStats::since`] follow from the one list.
macro_rules! sim_stats {
    ($(
        $(#[doc = $doc:literal])+
        $field:ident: $ty:ty,
    )*) => {
        /// End-of-run statistics from one simulation.
        #[derive(Clone, Default, Debug, PartialEq)]
        pub struct SimStats {
            $($(#[doc = $doc])+ pub $field: $ty,)*
        }

        impl SimStats {
            /// Visits every value in declaration order as `(name, value)`;
            /// `traffic` appears as its `read` and `write` arrays.
            pub fn visit(&self, mut f: impl FnMut(&'static str, StatValue)) {
                $(StatField::visit(&self.$field, stringify!($field), &mut f);)*
            }

            /// Sets the value [`SimStats::visit`] reports as `name`; false
            /// when no value has that name and kind.
            pub fn set(&mut self, name: &str, value: StatValue) -> bool {
                $(StatField::set(&mut self.$field, stringify!($field), name, value) ||)* false
            }

            /// What a run counted between the running totals `earlier` and
            /// `self`, field by field, so deltas over consecutive spans sum
            /// back to the totals (a maximum, like `lat_max`, contributes
            /// how far it rose).  Panics in debug builds if a value shrank.
            pub fn since(&self, earlier: &SimStats) -> SimStats {
                SimStats {
                    $($field: StatField::since(&self.$field, &earlier.$field),)*
                }
            }
        }
    };
}

sim_stats! {
    /// Total simulated core cycles.
    cycles: u64,
    /// Instructions retired (trace events completed, including think time).
    instructions: u64,
    /// Warp-level memory accesses issued.
    accesses: u64,
    /// L2 hits (merged misses included).
    l2_hits: u64,
    /// L2 misses (write allocations included).
    l2_misses: u64,
    /// L2 write-backs sent to DRAM.
    l2_writebacks: u64,
    /// Counter-cache hits/misses.
    ctr_hits: u64,
    /// Counter-cache misses.
    ctr_misses: u64,
    /// Counter-cache lines evicted.
    ctr_victims: u64,
    /// Lookup hits those evicted counter lines had served: the hotness the
    /// replacement policy gave up by evicting them.
    ctr_victim_uses: u64,
    /// MAC-cache hits.
    mac_hits: u64,
    /// MAC-cache misses.
    mac_misses: u64,
    /// BMT-cache hits.
    bmt_hits: u64,
    /// BMT-cache misses.
    bmt_misses: u64,
    /// BMT authentication walks, one per counter-cache miss.
    bmt_walks: u64,
    /// Levels those walks climbed before a cached node or the root
    /// (`bmt_depth_sum / bmt_walks` is the mean walk depth).
    bmt_depth_sum: u64,
    /// Victim-cache (L2) hits for metadata.
    victim_hits: u64,
    /// DRAM traffic broken down by class.
    traffic: TrafficBytes,
    /// Accesses that skipped counter fetch + BMT walk via the shared counter.
    readonly_fast_path: u64,
    /// Accesses served by a chunk-level MAC.
    chunk_mac_accesses: u64,
    /// Streaming-predictor mispredictions observed.
    stream_mispredictions: u64,
    /// Read-only-predictor mispredictions observed.
    readonly_mispredictions: u64,
    /// Sum of access completion latencies (completion - issue), cycles.
    lat_sum: u64,
    /// Maximum access completion latency observed.
    lat_max: u64,
    /// DRAM requests completed by the fabric (all traffic classes).
    dram_requests: u64,
    /// Pages migrated CPU→GPU through the secure inter-pool channel
    /// (heterogeneous-pool runs only; zero in single-pool mode).
    pool_migrations: u64,
    /// Pages spilled GPU→CPU to make room for a hot page.
    pool_spills: u64,
    /// Data accesses served by the CPU-side pool.
    pool_cpu_accesses: u64,
    /// Accesses that hit GPU-pool capacity pressure (gpu-only policy).
    pool_capacity_events: u64,
    /// Bytes the coherent link carried toward the GPU pool.
    link_bytes_to_gpu: u64,
    /// Bytes the coherent link carried toward the CPU pool.
    link_bytes_to_cpu: u64,
}

impl SimStats {
    /// Appends one `"name":value` JSON member per value [`SimStats::visit`]
    /// reports, comma-separated, with no enclosing braces: a count is a
    /// number, a per-class value an array in `TrafficClass::ALL` order.
    /// The job journal's payload and the telemetry epoch line both write
    /// their statistics here.
    pub fn write_json_members(&self, out: &mut String) {
        let mut sep = "";
        self.visit(|name, value| {
            let _ = write!(out, "{sep}\"{name}\":");
            sep = ",";
            match value {
                StatValue::Count(v) => {
                    let _ = write!(out, "{v}");
                }
                StatValue::PerClass([a, b, c, d, e]) => {
                    let _ = write!(out, "[{a},{b},{c},{d},{e}]");
                }
            }
        });
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 miss rate over data accesses.
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_misses as f64 / total as f64
        }
    }

    /// Achieved DRAM data bandwidth utilization against `peak_bytes_per_cycle`.
    pub fn bandwidth_utilization(&self, peak_bytes_per_cycle: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let total = self.traffic.data_bytes() + self.traffic.metadata_bytes();
        total as f64 / self.cycles as f64 / peak_bytes_per_cycle
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} instr={} ipc={:.3} l2_miss={:.1}%",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.l2_miss_rate() * 100.0
        )?;
        write!(
            f,
            "traffic: data={}B metadata={}B overhead={:.2}%",
            self.traffic.data_bytes(),
            self.traffic.metadata_bytes(),
            self.traffic.overhead_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accounting() {
        let mut t = TrafficBytes::default();
        t.record(TrafficClass::Data, 128, false);
        t.record(TrafficClass::Data, 32, true);
        t.record(TrafficClass::Mac, 32, false);
        t.record(TrafficClass::Bmt, 64, true);
        assert_eq!(t.data_bytes(), 160);
        assert_eq!(t.metadata_bytes(), 96);
        assert!((t.overhead_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overhead_ratio_zero_data_is_zero() {
        let mut t = TrafficBytes::default();
        t.record(TrafficClass::Mac, 32, false);
        assert_eq!(t.overhead_ratio(), 0.0);
    }

    #[test]
    fn addassign_sums_fields() {
        let mut a = TrafficBytes::default();
        a.record(TrafficClass::Counter, 10, false);
        let mut b = TrafficBytes::default();
        b.record(TrafficClass::Counter, 5, true);
        a += b;
        assert_eq!(a.class_total(TrafficClass::Counter), 15);
    }

    #[test]
    fn ipc_and_miss_rate() {
        let stats = SimStats {
            cycles: 100,
            instructions: 250,
            l2_hits: 30,
            l2_misses: 70,
            ..Default::default()
        };
        assert!((stats.ipc() - 2.5).abs() < 1e-12);
        assert!((stats.l2_miss_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.l2_miss_rate(), 0.0);
        assert_eq!(stats.bandwidth_utilization(18.6), 0.0);
    }
}
