//! Placement-policy sweep over the heterogeneous-pool design axis.
//!
//! The paper tables never touch pools (the default configuration is
//! single-pool and byte-identical to a pool-free build); this module runs
//! the confidential-AI profiles whose footprints exceed GPU-pool capacity
//! under each [`PlacementPolicy`] and reports the migration/spill/link
//! counters alongside cycles.

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_workloads::BenchmarkProfile;
use sim_exec::{Executor, SweepError};

use crate::trace_seed;

/// The heterogeneous-pool profiles, event-scaled like [`crate::scaled_suite`].
pub fn scaled_hetero_suite(scale: f64) -> Vec<BenchmarkProfile> {
    BenchmarkProfile::hetero_suite()
        .into_iter()
        .map(|mut p| {
            p.events_per_kernel = ((p.events_per_kernel as f64 * scale) as u64).max(4096);
            p
        })
        .collect()
}

/// One `(profile, policy)` cell of the placement sweep.
#[derive(Clone, Debug)]
pub struct PoolRow {
    /// Benchmark name.
    pub name: String,
    /// Placement policy this cell ran under.
    pub policy: PlacementPolicy,
    /// Full simulation stats (pool counters included).
    pub stats: SimStats,
}

/// Runs one profile under one placement policy (SHM design point; the pool
/// sweep's axis is placement, not protection scheme).
pub fn run_one_pooled(profile: &BenchmarkProfile, pools: PoolsConfig) -> SimStats {
    let cfg = GpuConfig::default();
    let trace = profile.generate(trace_seed(profile.name));
    Simulator::new(&cfg, DesignPoint::Shm)
        .with_pools(pools)
        .run(&trace)
}

/// Fallible `(profile × policy)` sweep on the `sim-exec` pool.
///
/// Jobs reassemble in submission order, so the rows — and the rendered
/// table — are identical for any `--jobs` count.
///
/// # Errors
///
/// Returns a [`SweepError`] labelling every `(profile, policy)` job that
/// panicked.
pub fn try_run_pool_sweep(
    policies: &[PlacementPolicy],
    scale: f64,
    jobs: Option<usize>,
) -> Result<Vec<PoolRow>, SweepError> {
    let profiles = scaled_hetero_suite(scale);
    let pairs: Vec<(usize, PlacementPolicy)> = (0..profiles.len())
        .flat_map(|p| policies.iter().map(move |&pol| (p, pol)))
        .collect();

    let stats = Executor::from_request(jobs).try_map(
        &pairs,
        |_, &(p, pol)| format!("{} under {}", profiles[p].name, pol.label()),
        |_, &(p, pol)| run_one_pooled(&profiles[p], PoolsConfig::from_env(pol)),
    )?;

    Ok(pairs
        .iter()
        .zip(stats)
        .map(|(&(p, pol), s)| PoolRow {
            name: profiles[p].name.to_string(),
            policy: pol,
            stats: s,
        })
        .collect())
}

/// Renders the placement sweep as aligned columns (separate formatter from
/// the paper tables; the default `shm sweep` output is untouched).
pub fn format_pool_table(rows: &[PoolRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Heterogeneous pools: placement-policy sweep ==");
    let _ = writeln!(
        out,
        "{:<16}{:>18}{:>14}{:>12}{:>10}{:>12}{:>10}{:>14}{:>14}",
        "benchmark",
        "policy",
        "cycles",
        "migrations",
        "spills",
        "cpu_acc",
        "cap_evt",
        "link_to_gpu",
        "link_to_cpu",
    );
    for r in rows {
        let s = &r.stats;
        let _ = writeln!(
            out,
            "{:<16}{:>18}{:>14}{:>12}{:>10}{:>12}{:>10}{:>14}{:>14}",
            r.name,
            r.policy.label(),
            s.cycles,
            s.pool_migrations,
            s.pool_spills,
            s.pool_cpu_accesses,
            s.pool_capacity_events,
            s.link_bytes_to_gpu,
            s.link_bytes_to_cpu,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_suite_scales() {
        let small = scaled_hetero_suite(0.05);
        assert_eq!(small.len(), 2);
        assert!(small[0].events_per_kernel < BenchmarkProfile::weight_stream().events_per_kernel);
    }

    #[test]
    fn table_mentions_every_policy() {
        let rows: Vec<PoolRow> = PlacementPolicy::ALL
            .iter()
            .map(|&p| PoolRow {
                name: "x".into(),
                policy: p,
                stats: SimStats::default(),
            })
            .collect();
        let table = format_pool_table(&rows);
        for p in PlacementPolicy::ALL {
            assert!(table.contains(p.label()), "missing {}", p.label());
        }
    }
}
