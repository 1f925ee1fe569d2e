//! Heterogeneous-pool contract: the default configuration is single-pool
//! and byte-identical across job counts (pools change *nothing* unless
//! asked for), pressured pool runs are deterministic for any `--jobs`, and
//! capacity pressure behaves per policy — gpu-only signals pressure,
//! static-split overflows to the CPU pool, hot-page-migrate pulls hot
//! pages across the secure link with non-zero inter-pool byte counters.

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm_bench::{run_one, scaled_suite, trace_seed, BenchRow, Executor, Sweep};
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_workloads::BenchmarkProfile;

/// The suite sweep over `designs` at `scale` on `jobs` local workers.
fn suite_rows(designs: &[DesignPoint], scale: f64, jobs: usize) -> Vec<BenchRow> {
    let sweep = Sweep {
        executor: Executor::new(jobs),
        ..Sweep::suite(designs, scale)
    };
    let run = sweep.run(|_, job| job.run()).expect("sweep");
    sweep.rows(run.complete().expect("sweep completes"))
}

/// Without `.with_pools`, no pool model exists: every pool counter in the
/// stats must be exactly zero, for every design point, on every profile of
/// the paper suite.
#[test]
fn default_single_pool_runs_have_zero_pool_counters() {
    for profile in scaled_suite(0.02).iter().take(3) {
        for design in [DesignPoint::Unprotected, DesignPoint::Shm] {
            let stats = run_one(profile, design);
            assert_eq!(stats.pool_migrations, 0, "{}", profile.name);
            assert_eq!(stats.pool_spills, 0, "{}", profile.name);
            assert_eq!(stats.pool_cpu_accesses, 0, "{}", profile.name);
            assert_eq!(stats.pool_capacity_events, 0, "{}", profile.name);
            assert_eq!(stats.link_bytes_to_gpu, 0, "{}", profile.name);
            assert_eq!(stats.link_bytes_to_cpu, 0, "{}", profile.name);
        }
    }
}

/// The default (pool-free) sweep stays byte-identical between `--jobs 1`
/// and `--jobs N` — the pool hook in the simulator hot path must not
/// perturb submission-order determinism.
#[test]
fn default_sweep_is_byte_identical_across_job_counts() {
    let serial = suite_rows(&[DesignPoint::Shm], 0.02, 1);
    let parallel = suite_rows(&[DesignPoint::Shm], 0.02, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.stats, p.stats, "{} diverged across job counts", s.name);
    }
}

/// A pool geometry the kv-cache-growth footprint (32 MiB) cannot fit.
fn pressured(policy: PlacementPolicy) -> PoolsConfig {
    let mut cfg = PoolsConfig::new(policy);
    cfg.gpu_capacity = 1 << 20; // 1 MiB: 64 pages of 16 KiB
    cfg.cpu_capacity = 64 << 20;
    cfg.hot_touches = 2;
    cfg
}

/// kv-cache-growth at 4,096 events under SHM with `pools`.
fn run_pooled(pools: PoolsConfig) -> SimStats {
    let mut profile = BenchmarkProfile::kv_cache_growth();
    profile.events_per_kernel = 4096;
    let trace = profile.generate(trace_seed(profile.name));
    Simulator::new(&GpuConfig::default(), DesignPoint::Shm)
        .with_pools(pools)
        .run(&trace)
}

/// gpu-only under oversubscription: every overflow touch is a capacity
/// event, and nothing ever migrates.
#[test]
fn gpu_only_reports_capacity_pressure_under_oversubscription() {
    let stats = run_pooled(pressured(PlacementPolicy::GpuOnly));
    assert!(stats.pool_capacity_events > 0, "no capacity pressure seen");
    assert!(stats.pool_cpu_accesses > 0);
    assert_eq!(stats.pool_migrations, 0, "gpu-only never migrates");
    assert_eq!(stats.pool_spills, 0);
}

/// static-split under oversubscription: overflow pages live in the CPU
/// pool and every touch crosses the link, but no pages move.
#[test]
fn static_split_spills_to_cpu_pool_without_migrating() {
    let stats = run_pooled(pressured(PlacementPolicy::StaticSplit));
    assert!(stats.pool_cpu_accesses > 0, "overflow must go remote");
    assert!(stats.link_bytes_to_gpu > 0, "remote reads cross the link");
    assert_eq!(stats.pool_migrations, 0, "static split never migrates");
    assert_eq!(
        stats.pool_capacity_events, 0,
        "capacity pressure is the gpu-only signal"
    );
}

/// hot-page-migrate under oversubscription: hot pages are pulled through
/// the secure migration channel (spilling cold ones), so both inter-pool
/// byte counters are non-zero and migrations happened.
#[test]
fn hot_page_migrate_moves_pages_with_nonzero_link_counters() {
    let stats = run_pooled(pressured(PlacementPolicy::HotPageMigrate));
    assert!(stats.pool_migrations > 0, "no page ever got hot enough");
    assert!(
        stats.pool_spills > 0,
        "migrations into a full pool must spill"
    );
    assert!(
        stats.link_bytes_to_gpu > 0,
        "promotion bytes toward the GPU"
    );
    assert!(stats.link_bytes_to_cpu > 0, "spill bytes toward the CPU");
}

/// The three policies' pressured runs on the shared executor reassemble
/// in submission order: the same stats, migrations and link bytes
/// included, for any job count.
#[test]
fn pool_sweep_is_deterministic_across_job_counts() {
    let sweep =
        |jobs| Executor::new(jobs).map(&PlacementPolicy::ALL, |_, &p| run_pooled(pressured(p)));
    assert_eq!(sweep(1), sweep(4));
}

/// The same pooled run twice is bit-for-bit the same run — migration
/// decisions, link accounting and all.
#[test]
fn pooled_runs_are_deterministic() {
    let a = run_pooled(pressured(PlacementPolicy::HotPageMigrate));
    let b = run_pooled(pressured(PlacementPolicy::HotPageMigrate));
    assert_eq!(a, b);
}
