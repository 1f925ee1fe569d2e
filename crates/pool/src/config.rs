//! Pool/link configuration and the `SHM_POOL_*` / `SHM_LINK_*` environment
//! knobs.

use shm_dram::DramConfig;

/// `SHM_POOL_GPU_MB` — GPU-pool capacity in MiB.
pub const GPU_MB_ENV: &str = "SHM_POOL_GPU_MB";
/// `SHM_POOL_CPU_MB` — CPU-pool capacity in MiB.
pub const CPU_MB_ENV: &str = "SHM_POOL_CPU_MB";
/// `SHM_POOL_PAGE_KB` — migration page size in KiB.
pub const PAGE_KB_ENV: &str = "SHM_POOL_PAGE_KB";
/// `SHM_POOL_HOT_TOUCHES` — touches before a CPU-resident page migrates.
pub const HOT_TOUCHES_ENV: &str = "SHM_POOL_HOT_TOUCHES";
/// `SHM_LINK_LATENCY` — one-way link latency in core cycles.
pub const LINK_LATENCY_ENV: &str = "SHM_LINK_LATENCY";
/// `SHM_LINK_BYTES_PER_CYCLE` — per-direction link bandwidth.
pub const LINK_BPC_ENV: &str = "SHM_LINK_BYTES_PER_CYCLE";

/// Every pool/link knob, in `shm env` table form: `(name, default, what)`.
pub const ENV_KNOBS: &[(&str, &str, &str)] = &[
    (GPU_MB_ENV, "8", "pools: GPU-pool capacity in MiB"),
    (CPU_MB_ENV, "64", "pools: CPU-pool capacity in MiB"),
    (PAGE_KB_ENV, "16", "pools: migration page size in KiB"),
    (
        HOT_TOUCHES_ENV,
        "64",
        "pools: CPU-page touches before hot-page-migrate promotes it",
    ),
    (
        LINK_LATENCY_ENV,
        "500",
        "link: one-way CPU<->GPU link latency in core cycles",
    ),
    (
        LINK_BPC_ENV,
        "16.0",
        "link: per-direction link bandwidth in bytes per core cycle",
    ),
];

/// Where a first-touch page lands and when (if ever) it moves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementPolicy {
    /// Everything targets the GPU pool; pages beyond capacity stay host-backed
    /// and every access to them pays the full link round trip (UVM-style
    /// demand paging, reported as capacity pressure).
    GpuOnly,
    /// First-touch fills the GPU pool, the overflow lives permanently in the
    /// CPU pool. No migration.
    StaticSplit,
    /// Like static-split, but CPU-resident pages that get hot are migrated
    /// into the GPU pool via the secure channel, evicting the coldest GPU
    /// page when full.
    HotPageMigrate,
}

impl PlacementPolicy {
    /// All policies, in sweep/display order.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::GpuOnly,
        PlacementPolicy::StaticSplit,
        PlacementPolicy::HotPageMigrate,
    ];

    /// Stable CLI/report label.
    pub const fn label(self) -> &'static str {
        match self {
            PlacementPolicy::GpuOnly => "gpu-only",
            PlacementPolicy::StaticSplit => "static-split",
            PlacementPolicy::HotPageMigrate => "hot-page-migrate",
        }
    }

    /// Parses a CLI/env label.
    pub fn parse(s: &str) -> Option<Self> {
        PlacementPolicy::ALL
            .iter()
            .copied()
            .find(|p| p.label() == s)
    }
}

/// Full heterogeneous-pool configuration. Absence of this struct on a
/// simulator means single-pool mode (today's byte-identical default).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PoolsConfig {
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// GPU-pool capacity in bytes.
    pub gpu_capacity: u64,
    /// CPU-pool capacity in bytes.
    pub cpu_capacity: u64,
    /// Migration/placement granule in bytes (power of two, >= 128).
    pub page_bytes: u64,
    /// Touches before hot-page-migrate promotes a CPU-resident page.
    pub hot_touches: u64,
    /// One-way link latency in core cycles.
    pub link_latency: u64,
    /// Per-direction link bandwidth in bytes per core cycle.
    pub link_bytes_per_cycle: f64,
    /// Seed for the migration channel's key derivation.
    pub seed: u64,
}

impl PoolsConfig {
    /// Defaults sized so the hetero workload profiles overflow the GPU pool.
    pub fn new(policy: PlacementPolicy) -> Self {
        Self {
            policy,
            gpu_capacity: 8 << 20,
            cpu_capacity: 64 << 20,
            page_bytes: 16 << 10,
            hot_touches: 64,
            link_latency: 500,
            link_bytes_per_cycle: 16.0,
            seed: 0x4845_5445_524f, // "HETERO"
        }
    }

    /// `new(policy)` with every `SHM_POOL_*` / `SHM_LINK_*` env override
    /// applied. Unparseable values fall back to the default.
    pub fn from_env(policy: PlacementPolicy) -> Self {
        let mut cfg = Self::new(policy);
        if let Some(mb) = env_u64(GPU_MB_ENV) {
            cfg.gpu_capacity = mb << 20;
        }
        if let Some(mb) = env_u64(CPU_MB_ENV) {
            cfg.cpu_capacity = mb << 20;
        }
        if let Some(kb) = env_u64(PAGE_KB_ENV) {
            let bytes = kb << 10;
            if bytes >= 128 && bytes.is_power_of_two() {
                cfg.page_bytes = bytes;
            }
        }
        if let Some(t) = env_u64(HOT_TOUCHES_ENV) {
            cfg.hot_touches = t.max(1);
        }
        if let Some(l) = env_u64(LINK_LATENCY_ENV) {
            cfg.link_latency = l;
        }
        if let Some(b) = std::env::var(LINK_BPC_ENV)
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
        {
            if b > 0.0 {
                cfg.link_bytes_per_cycle = b;
            }
        }
        cfg
    }

    /// Timing model for the CPU-side pool: one LPDDR-like channel — lower
    /// bandwidth, slower row timing, longer controller path than the GPU
    /// partitions (`DramConfig::default`).
    pub fn cpu_dram_config(&self) -> DramConfig {
        DramConfig {
            bytes_per_cycle: 8.0,
            t_row_hit: 60,
            t_row_miss: 180,
            t_base: 100,
            ..DramConfig::default()
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_labels_roundtrip() {
        for p in PlacementPolicy::ALL {
            assert_eq!(PlacementPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(PlacementPolicy::parse("bogus"), None);
    }

    #[test]
    fn defaults_force_spill_for_hetero_profiles() {
        let cfg = PoolsConfig::new(PlacementPolicy::HotPageMigrate);
        // The hetero workload profiles are sized at 24-32 MiB, so the default
        // 8 MiB GPU pool must overflow into the CPU pool.
        assert!(cfg.gpu_capacity < 24 << 20);
        assert!(cfg.cpu_capacity >= 32 << 20);
        assert!(cfg.page_bytes.is_power_of_two());
        assert_eq!(cfg.page_bytes % 128, 0);
    }

    #[test]
    fn env_overrides_apply_and_bad_values_fall_back() {
        // Env vars are process-global; run the whole scenario in one test to
        // avoid cross-test races.
        std::env::set_var(GPU_MB_ENV, "4");
        std::env::set_var(PAGE_KB_ENV, "3"); // not a power of two: ignored
        std::env::set_var(LINK_BPC_ENV, "32.0");
        let cfg = PoolsConfig::from_env(PlacementPolicy::StaticSplit);
        std::env::remove_var(GPU_MB_ENV);
        std::env::remove_var(PAGE_KB_ENV);
        std::env::remove_var(LINK_BPC_ENV);
        assert_eq!(cfg.gpu_capacity, 4 << 20);
        assert_eq!(cfg.page_bytes, 16 << 10);
        assert!((cfg.link_bytes_per_cycle - 32.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_pool_is_slower_than_gpu_partitions() {
        let cfg = PoolsConfig::new(PlacementPolicy::GpuOnly);
        let cpu = cfg.cpu_dram_config();
        let gpu = DramConfig::default();
        assert!(cpu.bytes_per_cycle < gpu.bytes_per_cycle);
        assert!(cpu.t_row_hit > gpu.t_row_hit);
        assert!(cpu.t_base > gpu.t_base);
    }

    #[test]
    fn every_knob_constant_appears_in_the_table() {
        for name in [
            GPU_MB_ENV,
            CPU_MB_ENV,
            PAGE_KB_ENV,
            HOT_TOUCHES_ENV,
            LINK_LATENCY_ENV,
            LINK_BPC_ENV,
        ] {
            assert!(
                ENV_KNOBS.iter().any(|(n, _, _)| *n == name),
                "{name} missing from ENV_KNOBS"
            );
        }
    }
}
