//! Shared harness for regenerating the paper's tables and figures.
//!
//! [`Sweep`] runs the (benchmark × design) simulations of a figure, a
//! [`Memo`] lets the figures of one run share them, the helpers here turn
//! their stats into the series the paper plots, and [`cli`] is the
//! command-line front end of the `repro` and `shm` binaries.  The
//! integration tests assert the *shape* of the results (who wins, by
//! roughly what factor).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats, TrafficClass};
pub use shm_recovery::RecoveryError;
use shm_workloads::BenchmarkProfile;
pub use sim_exec::{Executor, SweepError};

pub mod cli;
mod job;
pub mod memo;
pub mod pool;
pub mod sweep;

pub use job::{Detailed, SimJob};
pub use memo::Memo;
pub use sweep::{Journal, Sweep, SweepFailure, SweepRun};

/// Scale factor for event counts: 1.0 = full runs (repro binary),
/// smaller for quick tests/benches.
pub fn scaled_suite(scale: f64) -> Vec<BenchmarkProfile> {
    BenchmarkProfile::suite()
        .into_iter()
        .map(|mut p| {
            p.events_per_kernel = ((p.events_per_kernel as f64 * scale) as u64).max(4096);
            p
        })
        .collect()
}

/// Deterministic per-benchmark trace seed: FNV-1a over the full name.
///
/// The seed must depend on the *content* of the name, not just its length —
/// an earlier `0xBEEF ^ name.len()` scheme gave every same-length pair of
/// benchmarks (e.g. `bfs`/`nw`) identical traces.
pub fn trace_seed(name: &str) -> u64 {
    sim_dist::protocol::payload_digest(name.as_bytes())
}

/// FNV-1a over an ordered list of config parts (benchmark names, design
/// labels, scale, …), each followed by a 0x1f unit separator so
/// `["ab", "c"]` and `["a", "bc"]` differ: the guard a [`Journal`] stores so
/// `--resume` refuses to mix results from different sweep configurations.
pub fn config_hash(parts: &[&str]) -> u64 {
    let joined: Vec<u8> = parts.iter().flat_map(|p| p.bytes().chain([0x1f])).collect();
    sim_dist::protocol::payload_digest(&joined)
}

/// FNV-1a over `trace` as [`gpu_mem_sim::write_trace`] encodes it: the
/// [`config_hash`] part that binds a journal to a trace's content (its
/// seed, `--custom` shape or stored file), not only to its name.
pub fn trace_digest(trace: &ContextTrace) -> u64 {
    let mut encoded = Vec::new();
    gpu_mem_sim::write_trace(trace, &mut encoded).expect("writing to a Vec cannot fail");
    sim_dist::protocol::payload_digest(&encoded)
}

/// Runs one benchmark under one design; seeds are fixed for determinism.
pub fn run_one(profile: &BenchmarkProfile, design: DesignPoint) -> SimStats {
    let cfg = GpuConfig::default();
    let trace = profile.generate(trace_seed(profile.name));
    Simulator::new(&cfg, design).run(&trace)
}

/// Normalized IPC of `stats` against the unprotected `baseline` run of the
/// same trace (same instruction count, so the ratio of cycles inverts).
pub fn normalized_ipc(stats: &SimStats, baseline: &SimStats) -> f64 {
    if stats.cycles == 0 {
        return 0.0;
    }
    baseline.cycles as f64 / stats.cycles as f64
}

/// Results of one benchmark across a set of designs.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: String,
    /// Stats per design (baseline included).
    pub stats: BTreeMap<&'static str, SimStats>,
}

impl BenchRow {
    /// Normalized IPC for `design` in this row.
    pub fn norm_ipc(&self, design: DesignPoint) -> f64 {
        let base = &self.stats["Baseline"];
        normalized_ipc(&self.stats[design.name()], base)
    }

    /// Bandwidth overhead ratio for `design` (Fig. 14 metric).
    pub fn bandwidth_overhead(&self, design: DesignPoint) -> f64 {
        self.stats[design.name()].traffic.overhead_ratio()
    }

    /// Normalized energy per instruction for `design` (Fig. 15 metric).
    pub fn normalized_energy(&self, design: DesignPoint, model: &EnergyModel) -> f64 {
        model.normalized_epi(&self.stats[design.name()], &self.stats["Baseline"])
    }
}

/// Runs `designs` (plus the baseline) for one profile.
pub fn run_benchmark(profile: &BenchmarkProfile, designs: &[DesignPoint]) -> BenchRow {
    let mut stats = BTreeMap::new();
    stats.insert(
        DesignPoint::Unprotected.name(),
        run_one(profile, DesignPoint::Unprotected),
    );
    for d in designs {
        if *d == DesignPoint::Unprotected {
            continue;
        }
        stats.insert(d.name(), run_one(profile, *d));
    }
    BenchRow {
        name: profile.name.to_string(),
        stats,
    }
}

/// Arithmetic mean (the paper averages normalized IPC arithmetically).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders a figure as aligned columns.
///
/// Returning a `String` lets the repro harness render the same figure for
/// serial and parallel sweeps and compare the two byte-for-byte.
pub fn format_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let _ = write!(out, "{:<16}", "benchmark");
    for h in header {
        let _ = write!(out, "{h:>16}");
    }
    let _ = writeln!(out);
    for (name, vals) in rows {
        let _ = write!(out, "{name:<16}");
        for v in vals {
            let _ = write!(out, "{v:>16.4}");
        }
        let _ = writeln!(out);
    }
    let n = header.len();
    let _ = write!(out, "{:<16}", "MEAN");
    for i in 0..n {
        let col: Vec<f64> = rows.iter().map(|(_, v)| v[i]).collect();
        let _ = write!(out, "{:>16.4}", mean(&col));
    }
    let _ = writeln!(out);
    out
}

/// Traffic-class byte breakdown of one run, normalized to data bytes.
pub fn traffic_breakdown(stats: &SimStats) -> Vec<(&'static str, f64)> {
    let data = stats.traffic.data_bytes().max(1) as f64;
    TrafficClass::ALL
        .iter()
        .filter(|c| !matches!(c, TrafficClass::Data))
        .map(|&c| (c.label(), stats.traffic.class_total(c) as f64 / data))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_separates_parts() {
        assert_ne!(config_hash(&["ab", "c"]), config_hash(&["a", "bc"]));
        assert_ne!(config_hash(&["a"]), config_hash(&["a", ""]));
        assert_eq!(config_hash(&["x", "y"]), config_hash(&["x", "y"]));
        // The values every journal on disk was written with.
        assert_eq!(config_hash(&["toy"]), 0x3021_81ef_38d6_f748);
        assert_eq!(config_hash(&["suite", "0.25"]), 0x8309_82b6_cdc1_db18);
        assert_eq!(config_hash(&["ab", "c"]), 0x0ab1_1b2f_87ef_04a1);
        assert_eq!(config_hash(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn normalized_ipc_definition() {
        let base = SimStats {
            cycles: 100,
            ..SimStats::default()
        };
        let slow = SimStats {
            cycles: 200,
            ..SimStats::default()
        };
        assert!((normalized_ipc(&slow, &base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_length_names_get_distinct_seeds_and_traces() {
        // Regression: the old `0xBEEF ^ name.len()` seed collapsed every
        // same-length pair of benchmark names onto one trace.
        assert_ne!(trace_seed("bfs"), trace_seed("spm"));
        let mut a = scaled_suite(0.02).remove(0);
        let mut b = a.clone();
        a.name = "aaa";
        b.name = "bbb";
        let ta = a.generate(trace_seed(a.name));
        let tb = b.generate(trace_seed(b.name));
        let events = |t: &gpu_mem_sim::ContextTrace| -> Vec<gpu_types::MemEvent> {
            t.all_events().copied().collect()
        };
        assert_ne!(
            events(&ta),
            events(&tb),
            "same-length names must yield different traces"
        );
    }

    #[test]
    fn scaled_suite_scales() {
        let full = scaled_suite(1.0);
        let small = scaled_suite(0.1);
        assert_eq!(full.len(), small.len());
        assert!(small[0].events_per_kernel < full[0].events_per_kernel);
    }
}
