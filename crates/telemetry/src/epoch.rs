//! Periodic per-epoch metric snapshots.
//!
//! Every recorded byte and counter tick is attributed to exactly one epoch
//! accumulator, and `finalize` flushes the last partial epoch, so the sum of
//! all snapshots equals the run's end-of-run [`TrafficBytes`] totals exactly —
//! the invariant the telemetry property test checks.

use gpu_types::{TrafficBytes, TrafficClass};
use std::fmt::Write as _;

/// How a declared column is written: JSON members end in `,`, CSV cells in
/// `,`, and the line writer trims the last separator.
trait Column {
    fn json(&self, name: &str, out: &mut String);
    fn csv_header(prefix: &str, name: &str, out: &mut String);
    fn csv(&self, out: &mut String);
}

impl Column for u64 {
    fn json(&self, name: &str, out: &mut String) {
        let _ = write!(out, "\"{name}\":{self},");
    }

    fn csv_header(prefix: &str, name: &str, out: &mut String) {
        let _ = write!(out, "{prefix}{name},");
    }

    fn csv(&self, out: &mut String) {
        let _ = write!(out, "{self},");
    }
}

/// Traffic is a `read_bytes` and a `write_bytes` object keyed by class
/// label in JSON, and one `read_<class>` / `write_<class>` cell per class
/// in CSV.
impl Column for TrafficBytes {
    fn json(&self, _: &str, out: &mut String) {
        for (dir, bytes) in [("read_bytes", &self.read), ("write_bytes", &self.write)] {
            let _ = write!(out, "\"{dir}\":{{");
            for (class, v) in TrafficClass::ALL.iter().zip(bytes) {
                let _ = write!(out, "\"{}\":{v},", class.label());
            }
            out.pop();
            out.push_str("},");
        }
    }

    fn csv_header(prefix: &str, _: &str, out: &mut String) {
        for dir in ["read", "write"] {
            for class in TrafficClass::ALL {
                let _ = write!(out, "{prefix}{dir}_{},", class.label());
            }
        }
    }

    fn csv(&self, out: &mut String) {
        for v in self.read.iter().chain(&self.write) {
            let _ = write!(out, "{v},");
        }
    }
}

/// Declares a struct whose fields are output columns, in JSONL and CSV
/// order; fields after `;` are carried but not written as columns.
macro_rules! columns {
    (
        $(#[doc = $sdoc:literal])+
        pub struct $name:ident {
            $($(#[doc = $doc:literal])+ $col:ident: $cty:ty,)*
            $(; $(#[doc = $xdoc:literal])+ $extra:ident: $xty:ty,)?
        }
    ) => {
        $(#[doc = $sdoc])+
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[doc = $doc])+ pub $col: $cty,)*
            $($(#[doc = $xdoc])+ pub $extra: $xty,)?
        }

        impl $name {
            /// Declared column names, in output order.
            pub const COLUMNS: &'static [&'static str] = &[$(stringify!($col)),*];

            /// Appends one `"name":value,` JSON member per column.
            pub(crate) fn write_json_members(&self, out: &mut String) {
                $(Column::json(&self.$col, stringify!($col), out);)*
            }

            /// Appends one `<prefix><name>,` CSV header cell per column cell.
            pub(crate) fn write_csv_header(prefix: &str, out: &mut String) {
                $(<$cty as Column>::csv_header(prefix, stringify!($col), out);)*
            }

            /// Appends one `value,` CSV cell per column cell.
            pub(crate) fn write_csv_row(&self, out: &mut String) {
                $(Column::csv(&self.$col, out);)*
            }
        }
    };
}

columns! {
    /// Per-L2-partition activity inside one epoch (one entry per memory
    /// partition that was touched; the vector grows on demand, so partitions
    /// beyond the highest recorded index are implicitly all-zero).
    pub struct PartitionEpoch {
        /// DRAM bytes read through this partition during the epoch.
        read_bytes: u64,
        /// DRAM bytes written through this partition during the epoch.
        write_bytes: u64,
        /// L2 hits in this partition's banks during the epoch.
        l2_hits: u64,
        /// L2 misses in this partition's banks during the epoch.
        l2_misses: u64,
    }
}

columns! {
    /// Metrics accumulated over one epoch window of the simulation.
    pub struct EpochSnapshot {
        /// Zero-based epoch number.
        index: u64,
        /// First cycle covered by this epoch (inclusive).
        start_cycle: u64,
        /// Last cycle observed inside this epoch.
        end_cycle: u64,
        /// DRAM bytes recorded during the epoch, per traffic class.
        traffic: TrafficBytes,
        /// Instructions retired during the epoch (IPC proxy numerator).
        instructions: u64,
        /// Warp-level memory accesses issued.
        accesses: u64,
        /// L2 hits during the epoch.
        l2_hits: u64,
        /// L2 misses during the epoch.
        l2_misses: u64,
        /// DRAM requests completed during the epoch.
        dram_requests: u64,
        /// Counter-cache lines evicted during the epoch (victim-policy tuning).
        ctr_victims: u64,
        /// Sum of per-line hit counts over those evicted counter lines — the
        /// hotness the MDC victim policy gave up by evicting them.
        ctr_victim_uses: u64,
        /// BMT authentication walks started during the epoch (counter misses).
        bmt_walks: u64,
        /// Sum of levels climbed over those walks (`sum / walks` = mean depth —
        /// how far up the tree misses travel before hitting a cached node).
        bmt_depth_sum: u64,
        /// Deepest single walk observed during the epoch.
        bmt_depth_max: u64,
        /// Pages migrated CPU→GPU during the epoch (heterogeneous-pool runs).
        pool_migrations: u64,
        /// Pages spilled GPU→CPU during the epoch.
        pool_spills: u64,
        /// Data accesses served by the CPU-side pool during the epoch.
        pool_cpu_accesses: u64,
        /// Of those, accesses under gpu-only capacity pressure.
        pool_capacity_events: u64,
        /// Bytes the coherent link carried toward the GPU pool this epoch.
        link_bytes_to_gpu: u64,
        /// Bytes the coherent link carried toward the CPU pool this epoch.
        link_bytes_to_cpu: u64,
        ;
        /// Per-partition traffic and L2 hit/miss breakdown (index = partition).
        partitions: Vec<PartitionEpoch>,
    }
}

impl EpochSnapshot {
    /// The accumulator for partition `p`, growing the vector as needed.
    pub fn partition_mut(&mut self, p: usize) -> &mut PartitionEpoch {
        if self.partitions.len() <= p {
            self.partitions.resize(p + 1, PartitionEpoch::default());
        }
        &mut self.partitions[p]
    }
    /// Total bytes moved during the epoch, all classes.
    pub fn total_bytes(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .map(|&c| self.traffic.class_total(c))
            .sum()
    }

    /// Appends this snapshot as one JSON object line (no trailing newline):
    /// the declared columns, then the per-partition objects.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"type\":\"epoch\",");
        self.write_json_members(out);
        out.push_str("\"partitions\":[");
        for p in &self.partitions {
            out.push('{');
            p.write_json_members(out);
            out.pop();
            out.push_str("},");
        }
        if !self.partitions.is_empty() {
            out.pop();
        }
        out.push_str("]}");
    }
}

/// Rolls epoch accumulators as simulated time advances.
#[derive(Clone, Debug)]
pub struct EpochTracker {
    epoch_cycles: u64,
    current: EpochSnapshot,
    snapshots: Vec<EpochSnapshot>,
    finalized: bool,
}

impl EpochTracker {
    /// Tracker with the given epoch length in cycles (clamped to >= 1).
    pub fn new(epoch_cycles: u64) -> Self {
        Self {
            epoch_cycles: epoch_cycles.max(1),
            current: EpochSnapshot::default(),
            snapshots: Vec::new(),
            finalized: false,
        }
    }

    /// Rolls to a new epoch whenever `cycle` passes the current boundary.
    ///
    /// Completion timestamps are not globally monotone (per-SM heaps), so a
    /// late-arriving earlier cycle never rolls back: activity is attributed
    /// to the epoch open at record time, which keeps totals exact.
    pub fn advance(&mut self, cycle: u64) {
        while cycle >= self.current.start_cycle + self.epoch_cycles {
            let next_start = self.current.start_cycle + self.epoch_cycles;
            let next_index = self.current.index + 1;
            self.current.end_cycle = self.current.end_cycle.max(next_start - 1);
            let done = std::mem::take(&mut self.current);
            self.snapshots.push(done);
            self.current.index = next_index;
            self.current.start_cycle = next_start;
            self.current.end_cycle = next_start;
        }
        self.current.end_cycle = self.current.end_cycle.max(cycle);
    }

    /// Accessor for the epoch currently accumulating.
    pub fn current_mut(&mut self) -> &mut EpochSnapshot {
        &mut self.current
    }

    /// Flushes the trailing partial epoch; further activity would be lost,
    /// so record nothing after calling this.
    pub fn finalize(&mut self, end_cycle: u64) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.current.end_cycle = self.current.end_cycle.max(end_cycle);
        let done = std::mem::take(&mut self.current);
        self.snapshots.push(done);
    }

    /// Completed snapshots (includes the final partial epoch after `finalize`).
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.snapshots
    }

    /// Sum of per-class traffic across all snapshots plus the open epoch.
    pub fn total_traffic(&self) -> TrafficBytes {
        let mut total = TrafficBytes::default();
        for s in &self.snapshots {
            total += s.traffic;
        }
        total += self.current.traffic;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_epochs_on_boundary() {
        let mut t = EpochTracker::new(100);
        t.advance(5);
        t.current_mut()
            .traffic
            .record(TrafficClass::Data, 64, false);
        t.advance(150);
        t.current_mut().traffic.record(TrafficClass::Mac, 32, true);
        t.advance(420);
        t.finalize(420);
        let snaps = t.snapshots();
        // Epochs 0..=4 cover cycles 0..500; intermediate empty epochs exist.
        assert_eq!(snaps.len(), 5);
        assert_eq!(snaps[0].traffic.read[TrafficClass::Data as usize], 64);
        assert_eq!(snaps[1].traffic.write[TrafficClass::Mac as usize], 32);
        assert_eq!(snaps[1].start_cycle, 100);
        assert_eq!(snaps[4].end_cycle, 420);
    }

    #[test]
    fn late_arrivals_do_not_roll_back() {
        let mut t = EpochTracker::new(10);
        t.advance(25);
        t.advance(3); // out-of-order completion
        t.current_mut().instructions += 7;
        t.finalize(25);
        let snaps = t.snapshots();
        assert_eq!(snaps.last().unwrap().instructions, 7);
        assert_eq!(snaps.last().unwrap().index, 2);
    }

    #[test]
    fn totals_survive_epoch_rolling() {
        let mut t = EpochTracker::new(7);
        let mut expect = TrafficBytes::default();
        for i in 0..500u64 {
            t.advance(i);
            let class = TrafficClass::ALL[(i % 5) as usize];
            let bytes = (i % 97) + 1;
            let is_write = i % 3 == 0;
            t.current_mut().traffic.record(class, bytes, is_write);
            expect.record(class, bytes, is_write);
        }
        t.finalize(500);
        assert_eq!(t.total_traffic(), expect);
        assert!(t.snapshots().len() > 2);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut t = EpochTracker::new(10);
        t.advance(4);
        t.finalize(4);
        t.finalize(4);
        assert_eq!(t.snapshots().len(), 1);
    }

    #[test]
    fn json_shape() {
        let mut s = EpochSnapshot {
            index: 1,
            start_cycle: 100,
            end_cycle: 199,
            instructions: 3,
            ..Default::default()
        };
        s.traffic.record(TrafficClass::Bmt, 64, false);
        let mut out = String::new();
        s.write_json(&mut out);
        assert!(out.starts_with("{\"type\":\"epoch\",\"index\":1,"));
        assert!(out.contains("\"bmt\":64"));
        assert!(out.contains("\"instructions\":3"));
        assert!(out.ends_with('}'));
    }
}
