//! Pool/link configuration: the placement policies and the pool geometry.

use shm_dram::DramConfig;

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

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        PlacementPolicy::ALL
            .iter()
            .copied()
            .find(|p| p.label() == s)
    }
}

/// Full heterogeneous-pool configuration. Absence of this struct on a
/// simulator means single-pool mode (today's byte-identical default).
/// The CLI runs [`PoolsConfig::new`]'s geometry; code that wants another
/// sets the public fields.
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
    fn cpu_pool_is_slower_than_gpu_partitions() {
        let cfg = PoolsConfig::new(PlacementPolicy::GpuOnly);
        let cpu = cfg.cpu_dram_config();
        let gpu = DramConfig::default();
        assert!(cpu.bytes_per_cycle < gpu.bytes_per_cycle);
        assert!(cpu.t_row_hit > gpu.t_row_hit);
        assert!(cpu.t_base > gpu.t_base);
    }
}
