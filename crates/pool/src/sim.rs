//! Pool-aware access model: page directory, placement policies, spill and
//! migration decisions.
//!
//! [`PoolSim`] rides alongside the GPU simulator: every DRAM-bound data
//! access is offered to [`PoolSim::on_dram_access`], which decides whether
//! the touched page is GPU-resident (no extra cost), CPU-resident (the
//! access pays the LPDDR access plus the link round trip) or — under
//! hot-page-migrate — hot enough to pull across the link through the secure
//! migration channel. Everything is deterministic: placement is first-touch
//! in access order, eviction picks the coldest page with the lowest address.

use crate::config::{PlacementPolicy, PoolsConfig};
use crate::link::{CoherentLink, LinkDir};
use crate::migrate::MigrationChannel;
use shm_dram::DramPartition;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct PageState {
    in_gpu: bool,
    touches: u64,
}

/// Running totals the simulator folds into `SimStats` after a run.
#[derive(Clone, Copy, Default, Debug)]
pub struct PoolCounters {
    /// Pages migrated CPU→GPU through the secure channel.
    pub migrations: u64,
    /// Pages spilled GPU→CPU (evictions making room for a hot page).
    pub spills: u64,
    /// Data accesses served by the CPU-side pool.
    pub cpu_accesses: u64,
    /// Accesses that hit GPU-pool capacity pressure (gpu-only policy only).
    pub capacity_events: u64,
}

/// Heterogeneous-pool state for one simulation run.
pub struct PoolSim {
    cfg: PoolsConfig,
    link: CoherentLink,
    cpu_dram: DramPartition,
    channel: MigrationChannel,
    pages: BTreeMap<u64, PageState>,
    gpu_bytes: u64,
    counters: PoolCounters,
}

impl PoolSim {
    /// Builds the pool model for `cfg`.
    pub fn new(cfg: PoolsConfig) -> Self {
        assert!(
            cfg.page_bytes.is_power_of_two() && cfg.page_bytes >= 128,
            "page size must be a power-of-two multiple of the 128B block"
        );
        Self {
            link: CoherentLink::new(cfg.link_latency, cfg.link_bytes_per_cycle),
            cpu_dram: DramPartition::new(cfg.cpu_dram_config()),
            channel: MigrationChannel::new(cfg.seed, cfg.page_bytes),
            pages: BTreeMap::new(),
            gpu_bytes: 0,
            counters: PoolCounters::default(),
            cfg,
        }
    }

    /// Configuration this model was built with.
    pub fn config(&self) -> &PoolsConfig {
        &self.cfg
    }

    /// Totals so far.
    pub fn counters(&self) -> PoolCounters {
        self.counters
    }

    /// Link byte totals `(to_gpu, to_cpu)`.
    pub fn link_bytes(&self) -> (u64, u64) {
        (self.link.bytes_to_gpu(), self.link.bytes_to_cpu())
    }

    /// Offers one DRAM-bound data access to the pool model. `now` is the
    /// cycle the access reaches DRAM. Returns the absolute completion cycle
    /// of the remote path when the access left the GPU pool, or `None` for a
    /// GPU-local access (the caller's single-pool timing stands); the
    /// counters it moved are in [`PoolCounters`].
    pub fn on_dram_access(
        &mut self,
        now: u64,
        addr: u64,
        bytes: u64,
        is_write: bool,
    ) -> Option<u64> {
        let page = addr & !(self.cfg.page_bytes - 1);
        let state = self.first_touch(page);
        let touches = {
            let s = self.pages.get_mut(&page).expect("page just placed");
            s.touches += 1;
            s.touches
        };
        if state.in_gpu {
            return None;
        }

        self.counters.cpu_accesses += 1;
        if self.cfg.policy == PlacementPolicy::GpuOnly {
            // No GPU backing and no migration: every touch is demand-paged
            // over the link — that is the capacity-pressure signal.
            self.counters.capacity_events += 1;
        }

        if self.cfg.policy == PlacementPolicy::HotPageMigrate && touches >= self.cfg.hot_touches {
            return Some(self.migrate_in(now, page));
        }

        // Plain remote access: command latency out, LPDDR access, data back
        // across the bandwidth-limited link (writes occupy the CPU-bound
        // direction, reads the GPU-bound one).
        let dram_done = self
            .cpu_dram
            .access(now + self.link.latency(), addr, bytes, is_write);
        let dir = if is_write {
            LinkDir::ToCpu
        } else {
            LinkDir::ToGpu
        };
        Some(self.link.transfer(dram_done, bytes, dir))
    }

    /// First-touch placement of `page`; returns its (possibly new) state.
    fn first_touch(&mut self, page: u64) -> PageState {
        if let Some(s) = self.pages.get(&page) {
            return *s;
        }
        let fits = self.gpu_bytes + self.cfg.page_bytes <= self.cfg.gpu_capacity;
        let in_gpu = match self.cfg.policy {
            // gpu-only places what fits; the rest is host-backed overflow.
            PlacementPolicy::GpuOnly => fits,
            PlacementPolicy::StaticSplit | PlacementPolicy::HotPageMigrate => fits,
        };
        if in_gpu {
            self.gpu_bytes += self.cfg.page_bytes;
        }
        let s = PageState { in_gpu, touches: 0 };
        self.pages.insert(page, s);
        s
    }

    /// Pulls `page` into the GPU pool through the secure channel, spilling
    /// the coldest GPU page first when the pool is full; returns the cycle
    /// the migration completes.
    fn migrate_in(&mut self, now: u64, page: u64) -> u64 {
        let mut done = now;
        if self.gpu_bytes + self.cfg.page_bytes > self.cfg.gpu_capacity {
            if let Some(victim) = self.coldest_gpu_page() {
                self.channel
                    .transfer_page(victim, None)
                    .expect("untampered spill transfer verifies");
                let t = self.link.transfer(now, self.cfg.page_bytes, LinkDir::ToCpu);
                done = done.max(t);
                let v = self.pages.get_mut(&victim).expect("victim exists");
                v.in_gpu = false;
                v.touches = 0;
                self.gpu_bytes -= self.cfg.page_bytes;
                self.counters.spills += 1;
            }
        }
        self.channel
            .transfer_page(page, None)
            .expect("untampered migration transfer verifies");
        let t = self.link.transfer(now, self.cfg.page_bytes, LinkDir::ToGpu);
        done = done.max(t);
        let s = self.pages.get_mut(&page).expect("page exists");
        s.in_gpu = true;
        self.gpu_bytes += self.cfg.page_bytes;
        self.counters.migrations += 1;
        done
    }

    /// Deterministic eviction victim: fewest touches, lowest address.
    fn coldest_gpu_page(&self) -> Option<u64> {
        self.pages
            .iter()
            .filter(|(_, s)| s.in_gpu)
            .min_by_key(|(addr, s)| (s.touches, **addr))
            .map(|(addr, _)| *addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(policy: PlacementPolicy) -> PoolsConfig {
        let mut cfg = PoolsConfig::new(policy);
        cfg.gpu_capacity = 4 << 10; // 4 KiB = 2 pages
        cfg.cpu_capacity = 64 << 10;
        cfg.page_bytes = 2 << 10;
        cfg.hot_touches = 3;
        cfg
    }

    #[test]
    fn accesses_within_capacity_stay_local_under_every_policy() {
        for policy in PlacementPolicy::ALL {
            let mut pool = PoolSim::new(small_cfg(policy));
            for i in 0..8 {
                let out = pool.on_dram_access(i * 10, (i % 2) * 2048, 32, false);
                assert!(out.is_none(), "{policy:?} access {i} went remote");
            }
            assert_eq!(pool.counters().cpu_accesses, 0);
            assert_eq!(pool.link_bytes(), (0, 0));
        }
    }

    #[test]
    fn gpu_only_reports_capacity_pressure_past_capacity() {
        let mut pool = PoolSim::new(small_cfg(PlacementPolicy::GpuOnly));
        // Touch 4 distinct pages: 2 fit, 2 overflow.
        for i in 0..4u64 {
            pool.on_dram_access(i, i * 2048, 32, false);
        }
        let c = pool.counters();
        assert_eq!(c.capacity_events, 2);
        assert_eq!(c.cpu_accesses, 2);
        assert_eq!(c.migrations, 0, "gpu-only never migrates");
    }

    #[test]
    fn static_split_spills_overflow_but_never_migrates() {
        let mut pool = PoolSim::new(small_cfg(PlacementPolicy::StaticSplit));
        for round in 0..10u64 {
            for p in 0..4u64 {
                pool.on_dram_access(round * 100 + p, p * 2048, 32, false);
            }
        }
        let c = pool.counters();
        assert_eq!(c.migrations, 0);
        assert_eq!(c.capacity_events, 0, "pressure is a gpu-only signal");
        assert_eq!(c.cpu_accesses, 20, "two overflow pages, ten rounds each");
        let (to_gpu, _) = pool.link_bytes();
        assert!(to_gpu > 0, "remote reads pull bytes across the link");
    }

    #[test]
    fn hot_page_migrate_promotes_hot_pages_and_evicts_cold_ones() {
        let mut pool = PoolSim::new(small_cfg(PlacementPolicy::HotPageMigrate));
        // Pages 0,1 fill the GPU pool; page 2 overflows to CPU.
        for p in 0..3u64 {
            pool.on_dram_access(p, p * 2048, 32, false);
        }
        // Hammer page 2 until it crosses hot_touches = 3.
        let mut now = 100;
        for _ in 0..4 {
            now += 50;
            pool.on_dram_access(now, 2 * 2048, 32, false);
        }
        let c = pool.counters();
        assert_eq!(c.migrations, 1, "page 2 got promoted");
        assert_eq!(c.spills, 1, "a cold page made room");
        let (to_gpu, to_cpu) = pool.link_bytes();
        assert!(to_gpu >= 2048, "promotion moved a page toward the GPU");
        assert!(to_cpu >= 2048, "spill moved a page toward the CPU");
        // The promoted page is now GPU-local.
        let out = pool.on_dram_access(now + 500, 2 * 2048, 32, false);
        assert!(out.is_none());
    }

    #[test]
    fn remote_accesses_pay_link_latency() {
        let mut pool = PoolSim::new(small_cfg(PlacementPolicy::StaticSplit));
        for p in 0..3u64 {
            pool.on_dram_access(p, p * 2048, 32, false);
        }
        let done = pool
            .on_dram_access(1000, 2 * 2048, 32, false)
            .expect("remote completion");
        // Two link traversals plus the LPDDR access floor.
        assert!(done >= 1000 + 2 * pool.config().link_latency);
    }

    #[test]
    fn identical_access_streams_produce_identical_outcomes() {
        let run = || {
            let mut pool = PoolSim::new(small_cfg(PlacementPolicy::HotPageMigrate));
            let mut log = Vec::new();
            for i in 0..200u64 {
                let addr = (i % 5) * 2048 + (i % 3) * 128;
                let done = pool.on_dram_access(i * 7, addr, 32, i % 4 == 0);
                log.push((done, pool.counters().migrations));
            }
            let c = pool.counters();
            (
                log,
                c.migrations,
                c.spills,
                c.cpu_accesses,
                pool.link_bytes(),
            )
        };
        assert_eq!(run(), run());
    }
}
