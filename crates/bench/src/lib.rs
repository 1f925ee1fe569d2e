//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each figure/table of the evaluation has a function here that runs the
//! necessary (benchmark × design) simulations and returns the series the
//! paper plots; the `repro` binary prints them, the Criterion benches time
//! representative slices of them, and the integration tests assert the
//! *shape* of the results (who wins, by roughly what factor).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gpu_mem_sim::{DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats, TrafficClass};
pub use shm_recovery::RecoveryError;
use shm_recovery::{config_hash, map_journaled, JobJournal, SweepOptions};
use shm_workloads::BenchmarkProfile;
pub use sim_exec::{CancelToken, Executor, SweepError};

pub mod chaos;
pub mod dist;
pub mod pool;

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
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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

/// Runs `designs` (plus the baseline) over the scaled suite, parallelising
/// across the worker pool resolved from `SHM_JOBS` / available parallelism.
pub fn run_suite(designs: &[DesignPoint], scale: f64) -> Vec<BenchRow> {
    run_suite_jobs(designs, scale, None)
}

/// [`run_suite`] with an explicit worker count (`--jobs N`); `None` defers
/// to `SHM_JOBS` / available parallelism.
///
/// # Panics
///
/// Panics with every failing `(benchmark, design)` pair if any simulation
/// job panics; see [`try_run_suite_jobs`] for the non-panicking variant.
pub fn run_suite_jobs(designs: &[DesignPoint], scale: f64, jobs: Option<usize>) -> Vec<BenchRow> {
    match try_run_suite_jobs(designs, scale, jobs) {
        Ok(rows) => rows,
        Err(e) => panic!("suite sweep failed: {e}"),
    }
}

/// Fallible sweep over the full `(benchmark × design)` cross product.
///
/// Every pair is one job on the `sim-exec` pool; results reassemble in
/// submission order so the rows (and all downstream tables) are identical
/// to a serial run regardless of worker count.
///
/// # Errors
///
/// Returns a [`SweepError`] labelling every `(benchmark, design)` job that
/// panicked; successful rows are discarded in that case.
pub fn try_run_suite_jobs(
    designs: &[DesignPoint],
    scale: f64,
    jobs: Option<usize>,
) -> Result<Vec<BenchRow>, SweepError> {
    let profiles = scaled_suite(scale);
    // Baseline first, then each requested design once.
    let (_, pairs) = suite_pairs(designs, &profiles);

    let stats = Executor::from_request(jobs).try_map(
        &pairs,
        |_, &(p, d)| format!("{} under {}", profiles[p].name, d.name()),
        |_, &(p, d)| run_one(&profiles[p], d),
    )?;

    let mut rows: Vec<BenchRow> = profiles
        .iter()
        .map(|p| BenchRow {
            name: p.name.to_string(),
            stats: BTreeMap::new(),
        })
        .collect();
    for (&(p, d), s) in pairs.iter().zip(stats) {
        rows[p].stats.insert(d.name(), s);
    }
    Ok(rows)
}

/// The baseline-first design list and `(profile index, design)` job pairs
/// every suite sweep iterates, in deterministic submission order.
pub(crate) fn suite_pairs(
    designs: &[DesignPoint],
    profiles: &[BenchmarkProfile],
) -> (Vec<DesignPoint>, Vec<(usize, DesignPoint)>) {
    let mut points: Vec<DesignPoint> = vec![DesignPoint::Unprotected];
    points.extend(
        designs
            .iter()
            .copied()
            .filter(|d| *d != DesignPoint::Unprotected),
    );
    let pairs: Vec<(usize, DesignPoint)> = (0..profiles.len())
        .flat_map(|p| points.iter().map(move |&d| (p, d)))
        .collect();
    (points, pairs)
}

/// Outcome of a journaled (checkpointed) suite sweep.
#[derive(Debug)]
pub struct JournaledSuite {
    /// The assembled rows — `None` when the sweep was interrupted before
    /// every job completed (everything finished so far is journaled).
    pub rows: Option<Vec<BenchRow>>,
    /// Jobs whose results were loaded from the journal instead of re-run.
    pub reused: usize,
    /// Jobs executed (and journaled) during this call.
    pub executed: usize,
    /// Labels of every job the journal now holds, sorted.
    pub completed_labels: Vec<String>,
    /// The journal file backing this sweep.
    pub journal_path: PathBuf,
}

/// [`try_run_suite_jobs`] through a durable job journal: each completed
/// `(benchmark, design)` result is appended to
/// `journal_dir/<figure>.jsonl` as it lands, and a later call with the same
/// arguments reloads those results instead of re-simulating them — so an
/// interrupted sweep (SIGINT/SIGTERM routed into sim-exec cancellation, or
/// `crash_after_jobs` in tests) resumes where it stopped and assembles rows
/// byte-identical to an uninterrupted run.
///
/// The journal is bound to a hash of `figure`, the scaled profile list and
/// the design list; reusing the file for a different sweep is rejected.
///
/// # Errors
///
/// I/O or corruption errors on the journal, a rejected config hash, or a
/// [`SweepError`] from panicking jobs.
pub fn try_run_suite_journaled(
    figure: &str,
    designs: &[DesignPoint],
    scale: f64,
    jobs: Option<usize>,
    journal_dir: &Path,
    crash_after_jobs: Option<usize>,
) -> Result<JournaledSuite, RecoveryError> {
    let profiles = scaled_suite(scale);
    let (_, pairs) = suite_pairs(designs, &profiles);

    let mut parts: Vec<String> = vec![figure.to_string()];
    parts.extend(
        profiles
            .iter()
            .map(|p| format!("{}:{}", p.name, p.events_per_kernel)),
    );
    parts.extend(pairs.iter().map(|&(_, d)| d.name().to_string()));
    let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();

    std::fs::create_dir_all(journal_dir)?;
    let journal_path = journal_dir.join(format!("{figure}.jsonl"));
    let mut journal = JobJournal::open(&journal_path, config_hash(&part_refs))?;

    let token = CancelToken::new();
    let sweep = map_journaled(
        &Executor::from_request(jobs),
        &pairs,
        &mut journal,
        &token,
        SweepOptions { crash_after_jobs },
        |_, &(p, d)| format!("{} under {}", profiles[p].name, d.name()),
        |_, &(p, d)| run_one(&profiles[p], d),
    )?;
    let (reused, executed) = (sweep.reused, sweep.executed);

    let rows = sweep.complete().map(|stats| {
        let mut rows: Vec<BenchRow> = profiles
            .iter()
            .map(|p| BenchRow {
                name: p.name.to_string(),
                stats: BTreeMap::new(),
            })
            .collect();
        for (&(p, d), s) in pairs.iter().zip(stats) {
            rows[p].stats.insert(d.name(), s);
        }
        rows
    });
    Ok(JournaledSuite {
        rows,
        reused,
        executed,
        completed_labels: journal
            .completed_labels()
            .into_iter()
            .map(str::to_string)
            .collect(),
        journal_path,
    })
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

/// Geometric mean (the paper averages normalized IPC arithmetically; both
/// are provided).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders a figure as aligned columns (the format `print_table` emits).
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

/// Pretty-prints a figure as aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) {
    print!("{}", format_table(title, header, rows));
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
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
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
