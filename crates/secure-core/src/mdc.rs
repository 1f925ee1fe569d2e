//! Metadata caches (MDCs) and the per-partition MEE core flows.
//!
//! Each memory partition embeds three 2 KB metadata caches (counter, MAC,
//! BMT — Table VI).  [`MeeCore`] implements the flows every scheme shares:
//!
//! * counter fetch with the Bonsai-Merkle-Tree walk on a miss,
//! * counter update with the BMT path dirtying on a write,
//! * per-block MAC fetch/update,
//! * per-chunk MAC fetch/update (used by the SHM dual-granularity design),
//!
//! all charging the [`DramFabric`] for every transfer, and optionally
//! spilling evicted metadata lines into a victim store (the L2, Section
//! IV-D).

use gpu_types::{
    LocalAddr, MdcConfig, PartitionId, PhysAddr, SimStats, TrafficClass, BLOCK_BYTES, SECTOR_BYTES,
};
use shm_cache::{Eviction, Lookup, SectoredCache};
use shm_metadata::MetadataLayout;
use shm_telemetry::{Event, Hook, Probe};

use crate::fabric::DramFabric;

/// How metadata addresses are constructed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Addressing {
    /// From physical addresses over the whole protected range (Naive /
    /// Common_ctr).  Metadata for one partition's data may live in another
    /// partition, creating redundant cross-partition traffic.
    Physical,
    /// From partition-local addresses (PSSM and everything built on it).
    Local,
}

/// Which metadata cache an address lives in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MdcKind {
    /// Encryption-counter cache.
    Counter,
    /// MAC cache (both per-block and per-chunk MACs).
    Mac,
    /// Bonsai-Merkle-Tree cache.
    Bmt,
}

/// A sink for metadata lines evicted from the MDCs.
///
/// Section IV-D uses the L2 as a victim cache for metadata when the L2 is
/// underutilized or thrashing.  The simulator's L2 implements this trait;
/// [`NoVictim`] disables the mechanism.
pub trait VictimStore {
    /// Probes the victim store for `sectors` of the metadata line at `addr`.
    /// Returns `true` on a hit (the line is consumed back into the MDC).
    fn probe_victim(&mut self, addr: u64, sectors: u8) -> bool;

    /// Offers an evicted metadata line to the victim store.  Returns `true`
    /// if accepted (dirty data will be written back later by the L2), or
    /// `false` if the store declines (the MEE must write back now).
    fn insert_victim(&mut self, addr: u64, valid_sectors: u8, dirty_sectors: u8) -> bool;
}

/// A [`VictimStore`] that always declines (victim caching disabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoVictim;

impl VictimStore for NoVictim {
    fn probe_victim(&mut self, _addr: u64, _sectors: u8) -> bool {
        false
    }

    fn insert_victim(&mut self, _addr: u64, _valid: u8, _dirty: u8) -> bool {
        false
    }
}

/// The per-partition MEE state shared by every protected scheme.
#[derive(Clone, Debug)]
pub struct MeeCore {
    /// Partition this MEE belongs to.
    pub partition: PartitionId,
    /// Metadata layout for this MEE's address space (partition-local span
    /// for PSSM/SHM; whole physical range for Naive).
    pub layout: MetadataLayout,
    addressing: Addressing,
    ctr_cache: SectoredCache,
    mac_cache: SectoredCache,
    bmt_cache: SectoredCache,
    cfg: MdcConfig,
    probe: Probe,
}

impl MeeCore {
    /// Creates the MEE for `partition` with metadata over `span` bytes of
    /// `addressing`-mode addresses.
    pub fn new(partition: PartitionId, span: u64, addressing: Addressing, cfg: &MdcConfig) -> Self {
        let sectors = (cfg.line_bytes / SECTOR_BYTES) as u32;
        let mk = |c: &MdcConfig| SectoredCache::new(c.cache_bytes, c.line_bytes, c.assoc, sectors);
        Self {
            partition,
            layout: MetadataLayout::with_full_options(
                span,
                cfg.tree_arity,
                cfg.mac_bytes_per_block,
                cfg.chunk_bytes,
            ),
            addressing,
            ctr_cache: mk(cfg),
            mac_cache: mk(cfg),
            bmt_cache: mk(cfg),
            cfg: cfg.clone(),
            probe: Probe::disabled(),
        }
    }

    /// Starts the metadata work of one protected request (the MAC it
    /// computes on a write or verifies on a read): enters the profiler's
    /// metadata-walk phase until the returned guard drops, so the phase's
    /// call count is the number of protected requests.  Nested fabric
    /// guards carve their own share out of that phase.
    pub fn begin_request(&self) -> shm_metrics::phase::PhaseGuard {
        shm_metrics::phase::guard(shm_metrics::phase::Phase::MetadataWalk)
    }

    /// Attaches a telemetry probe; the MEE reports counter-cache misses,
    /// BMT walk depths and per-request pipeline depth through it.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// AES-engine latency in cycles.
    pub fn aes_latency(&self) -> u64 {
        self.cfg.aes_latency as u64
    }

    /// Hash/MAC-engine latency in cycles.
    pub fn hash_latency(&self) -> u64 {
        self.cfg.hash_latency as u64
    }

    /// The metadata address of the data at `local`/`phys` for this MEE's
    /// addressing mode, routed through `f`.
    fn data_offset(&self, local: LocalAddr, phys: PhysAddr) -> u64 {
        match self.addressing {
            Addressing::Local => local.offset,
            Addressing::Physical => phys.raw(),
        }
    }

    /// Fetch granularity for metadata: a 32 B sector when sectored, a full
    /// 128 B line otherwise (the Naive design).
    fn fetch_span(&self, addr: u64, sectored: bool) -> (u64, u64, u8) {
        if sectored {
            (addr, SECTOR_BYTES, self.ctr_cache.sector_mask_of(addr))
        } else {
            (
                addr & !(BLOCK_BYTES - 1),
                BLOCK_BYTES,
                self.ctr_cache.full_mask(),
            )
        }
    }

    /// Routes a metadata DRAM access through the fabric in the right
    /// address space.
    fn dram_access(
        &self,
        f: &mut DramFabric,
        now: u64,
        addr: u64,
        bytes: u64,
        is_write: bool,
        class: TrafficClass,
    ) -> u64 {
        // Encryption-counter reads gate OTP generation and therefore data
        // return; the memory controller prioritizes them over bulk traffic.
        let priority = matches!(class, TrafficClass::Counter) && !is_write;
        match self.addressing {
            Addressing::Local => {
                if priority {
                    f.read_priority(now, self.partition, self.partition, addr, bytes, class)
                } else {
                    f.access_local(now, self.partition, addr, bytes, is_write, class)
                }
            }
            Addressing::Physical => {
                if priority {
                    let local = f.map().to_local(PhysAddr::new(addr));
                    f.read_priority(
                        now,
                        self.partition,
                        local.partition,
                        local.offset,
                        bytes,
                        class,
                    )
                } else {
                    f.access_phys(
                        now,
                        self.partition,
                        PhysAddr::new(addr),
                        bytes,
                        is_write,
                        class,
                    )
                }
            }
        }
    }

    /// Handles an eviction from an MDC: offer it to the victim store, else
    /// write dirty sectors back to DRAM.
    fn handle_eviction(
        &self,
        ev: Eviction,
        class: TrafficClass,
        now: u64,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) {
        // Counter-cache victims carry their hotness (lookup hits served
        // while resident), so the victim policy can be tuned per epoch
        // instead of from aggregate miss rates.
        if matches!(class, TrafficClass::Counter) {
            stats.ctr_victims += 1;
            stats.ctr_victim_uses += ev.uses;
        }
        // Only MAC lines are worth keeping in the L2: a 128 B MAC line holds
        // sixteen block-/chunk-MACs and has far more reuse than a data line
        // (Section IV-D, "especially the MAC cache").  Counter/BMT victims
        // would mostly pollute the L2.
        if matches!(class, TrafficClass::Mac)
            && victim.insert_victim(ev.addr, ev.valid_sectors, ev.dirty_sectors)
        {
            return;
        }
        if ev.is_dirty() {
            let bytes = ev.dirty_sectors.count_ones() as u64 * SECTOR_BYTES;
            self.dram_access(f, now, ev.addr, bytes, true, class);
        }
    }

    /// Generic MDC read: returns the cycle the metadata is available.
    #[allow(clippy::too_many_arguments)]
    fn mdc_read(
        &mut self,
        kind: MdcKind,
        addr: u64,
        sectored: bool,
        class: TrafficClass,
        now: u64,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let (base, bytes, mask) = self.fetch_span(addr, sectored);
        let lookup = self.cache_mut(kind).lookup(base, mask);

        if lookup == Lookup::Hit {
            match kind {
                MdcKind::Counter => stats.ctr_hits += 1,
                MdcKind::Mac => stats.mac_hits += 1,
                MdcKind::Bmt => stats.bmt_hits += 1,
            }
            return now;
        }

        // Miss: try the victim store (L2) before DRAM.
        let missing = match lookup {
            Lookup::SectorMiss { missing } => missing,
            _ => mask,
        };
        let done = if victim.probe_victim(base, missing) {
            stats.victim_hits += 1;
            now + 10 // L2 probe latency, no DRAM traffic
        } else {
            match kind {
                MdcKind::Counter => stats.ctr_misses += 1,
                MdcKind::Mac => stats.mac_misses += 1,
                MdcKind::Bmt => stats.bmt_misses += 1,
            }
            let miss_bytes = (missing.count_ones() as u64 * SECTOR_BYTES).min(bytes);
            self.dram_access(f, now, base, miss_bytes, false, class)
        };
        if let Some(ev) = self.cache_mut(kind).fill(base, mask) {
            self.handle_eviction(ev, class, now, f, victim, stats);
        }
        done
    }

    fn cache_mut(&mut self, kind: MdcKind) -> &mut SectoredCache {
        match kind {
            MdcKind::Counter => &mut self.ctr_cache,
            MdcKind::Mac => &mut self.mac_cache,
            MdcKind::Bmt => &mut self.bmt_cache,
        }
    }

    /// Generic MDC update (write-allocate): fetch on miss, then dirty.
    #[allow(clippy::too_many_arguments)]
    fn mdc_write(
        &mut self,
        kind: MdcKind,
        addr: u64,
        sectored: bool,
        class: TrafficClass,
        now: u64,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let ready = self.mdc_read(kind, addr, sectored, class, now, f, victim, stats);
        let (base, _, mask) = self.fetch_span(addr, sectored);
        self.cache_mut(kind).mark_dirty(base, mask);
        ready
    }

    /// Fetches the encryption counter for a data sector, walking the BMT on
    /// a counter-cache miss.  Returns the cycle the counter is available
    /// (which gates OTP generation).
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_counter(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        sectored: bool,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let data = self.data_offset(local, phys);
        let ctr_addr = if sectored {
            self.layout.counter_sector(data)
        } else {
            self.layout.counter_line(data)
        };
        let misses_before = stats.ctr_misses;
        let ctr_ready = self.mdc_read(
            MdcKind::Counter,
            ctr_addr,
            sectored,
            TrafficClass::Counter,
            now,
            f,
            victim,
            stats,
        );
        if stats.ctr_misses == misses_before {
            // Hit: already verified when first brought on chip; the engine
            // pipeline touched a single metadata level.
            self.probe.record(Hook::EngineDepth { depth: 1 });
            return ctr_ready;
        }
        self.probe.emit(
            now,
            Event::CtrCacheMiss {
                partition: self.partition.index(),
            },
        );
        // Counter miss: verify freshness by walking the BMT upward until a
        // cached (already-verified) node or the on-chip root.  The walk
        // charges DRAM bandwidth, but — like MAC verification — it is off
        // the critical path: the fetched counter feeds OTP generation
        // immediately and an exception fires later on a mismatch.
        let mut walked = 0u32;
        for node in self.layout.bmt_path(data) {
            let before = stats.bmt_misses;
            self.mdc_read(
                MdcKind::Bmt,
                node,
                sectored,
                TrafficClass::Bmt,
                now,
                f,
                victim,
                stats,
            );
            walked += 1;
            if stats.bmt_misses == before {
                break; // cached ⇒ verified ⇒ stop the walk
            }
        }
        stats.bmt_walks += 1;
        stats.bmt_depth_sum += u64::from(walked);
        if self.probe.is_enabled() {
            self.probe.emit(
                now,
                Event::BmtWalk {
                    partition: self.partition.index(),
                    depth: walked,
                },
            );
            // Counter level plus every BMT level visited.
            self.probe.record(Hook::EngineDepth {
                depth: 1 + u64::from(walked),
            });
        }
        ctr_ready
    }

    /// Updates the encryption counter for a written sector: write-allocates
    /// the counter line and dirties the BMT path to the root.
    #[allow(clippy::too_many_arguments)]
    pub fn update_counter(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        sectored: bool,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let data = self.data_offset(local, phys);
        let ctr_addr = if sectored {
            self.layout.counter_sector(data)
        } else {
            self.layout.counter_line(data)
        };
        let ready = self.mdc_write(
            MdcKind::Counter,
            ctr_addr,
            sectored,
            TrafficClass::Counter,
            now,
            f,
            victim,
            stats,
        );
        // The write path updates every tree level; nodes are dirtied in the
        // BMT cache and written back on eviction.
        for node in self.layout.bmt_path(data) {
            self.mdc_write(
                MdcKind::Bmt,
                node,
                sectored,
                TrafficClass::Bmt,
                now,
                f,
                victim,
                stats,
            );
        }
        ready
    }

    /// Fetches the per-block MAC sector covering a data sector.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_block_mac(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        sectored: bool,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let data = self.data_offset(local, phys);
        let addr = self.layout.block_mac_sector(data);
        self.mdc_read(
            MdcKind::Mac,
            addr,
            sectored,
            TrafficClass::Mac,
            now,
            f,
            victim,
            stats,
        )
    }

    /// Updates the per-block MAC for a written data sector.
    #[allow(clippy::too_many_arguments)]
    pub fn update_block_mac(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        sectored: bool,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let data = self.data_offset(local, phys);
        let addr = self.layout.block_mac_sector(data);
        self.mdc_write(
            MdcKind::Mac,
            addr,
            sectored,
            TrafficClass::Mac,
            now,
            f,
            victim,
            stats,
        )
    }

    /// Marks a freshly produced block-MAC sector "not dirty" (streaming
    /// chunks keep their block MACs clean so they never cost write-backs —
    /// Section IV-C).
    pub fn clean_block_mac(&mut self, local: LocalAddr, phys: PhysAddr) {
        let data = self.data_offset(local, phys);
        let addr = self.layout.block_mac_sector(data);
        let mask = self.mac_cache.sector_mask_of(addr);
        self.mac_cache.clear_dirty(addr, mask);
    }

    /// Fetches the per-chunk MAC sector covering a data address.
    pub fn fetch_chunk_mac(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let data = self.data_offset(local, phys);
        let addr = self.layout.chunk_mac_sector(data);
        stats.chunk_mac_accesses += 1;
        self.mdc_read(
            MdcKind::Mac,
            addr,
            true,
            TrafficClass::Mac,
            now,
            f,
            victim,
            stats,
        )
    }

    /// Updates the per-chunk MAC covering a data address.
    pub fn update_chunk_mac(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) -> u64 {
        let data = self.data_offset(local, phys);
        let addr = self.layout.chunk_mac_sector(data);
        stats.chunk_mac_accesses += 1;
        self.mdc_write(
            MdcKind::Mac,
            addr,
            true,
            TrafficClass::Mac,
            now,
            f,
            victim,
            stats,
        )
    }

    /// Installs a block-MAC sector that was *produced on chip* (computed by
    /// the MAC engine from data already in flight): fills the MAC cache
    /// without DRAM traffic and leaves the sector clean.
    ///
    /// This is the streaming-chunk write flow of Section IV-C: block-level
    /// MACs of a streaming chunk live in the MAC cache marked 'not dirty',
    /// so they never generate write-back traffic — only the chunk-level MAC
    /// is persisted.
    pub fn produce_block_mac_clean(
        &mut self,
        now: u64,
        local: LocalAddr,
        phys: PhysAddr,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) {
        let data = self.data_offset(local, phys);
        let addr = self.layout.block_mac_sector(data);
        let mask = self.mac_cache.sector_mask_of(addr);
        if let Some(ev) = self.mac_cache.fill(addr, mask) {
            self.handle_eviction(ev, TrafficClass::Mac, now, f, victim, stats);
        }
        self.mac_cache.clear_dirty(addr, mask);
    }

    /// Propagates the shared counter into the per-block counters of a whole
    /// region after a read-only → not-read-only transition (Fig. 8).
    ///
    /// The new counter values are generated on chip and installed directly
    /// in the counter cache (dirty, written back on eviction); the BMT path
    /// over the region is updated to cover the newly added counters.
    #[allow(clippy::too_many_arguments)]
    pub fn propagate_region_counters(
        &mut self,
        now: u64,
        region_local_base: u64,
        region_bytes: u64,
        local_partition: PartitionId,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) {
        let mut off = region_local_base;
        let end = region_local_base + region_bytes;
        while off < end {
            let la = LocalAddr::new(local_partition, off);
            let pa = PhysAddr::new(off); // only used in Local addressing mode
            let data = self.data_offset(la, pa);
            let ctr_addr = self.layout.counter_sector(data);
            let mask = self.ctr_cache.sector_mask_of(ctr_addr);
            if let Some(ev) = self.ctr_cache.fill(ctr_addr, mask) {
                self.handle_eviction(ev, TrafficClass::Counter, now, f, victim, stats);
            }
            self.ctr_cache.mark_dirty(ctr_addr, mask);
            off += shm_metadata::layout::BLOCKS_PER_COUNTER_SECTOR * BLOCK_BYTES;
        }
        // One BMT path update covers the counter lines of the region.
        let la = LocalAddr::new(local_partition, region_local_base);
        let pa = PhysAddr::new(region_local_base);
        let data = self.data_offset(la, pa);
        for node in self.layout.bmt_path(data) {
            self.mdc_write(
                MdcKind::Bmt,
                node,
                true,
                TrafficClass::Bmt,
                now,
                f,
                victim,
                stats,
            );
        }
    }

    /// Flushes all MDCs, writing dirty metadata back (end of context).
    pub fn flush(
        &mut self,
        now: u64,
        f: &mut DramFabric,
        victim: &mut dyn VictimStore,
        stats: &mut SimStats,
    ) {
        for (kind, class) in [
            (MdcKind::Counter, TrafficClass::Counter),
            (MdcKind::Mac, TrafficClass::Mac),
            (MdcKind::Bmt, TrafficClass::Bmt),
        ] {
            let evs = self.cache_mut(kind).flush();
            for ev in evs {
                self.handle_eviction(ev, class, now, f, victim, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::{GpuConfig, MdcConfig};

    fn setup() -> (MeeCore, DramFabric, SimStats) {
        let cfg = GpuConfig::default();
        let mee = MeeCore::new(
            PartitionId(0),
            64 << 20,
            Addressing::Local,
            &MdcConfig::default(),
        );
        (mee, DramFabric::new(&cfg), SimStats::default())
    }

    fn la(off: u64) -> LocalAddr {
        LocalAddr::new(PartitionId(0), off)
    }

    #[test]
    fn counter_miss_then_hit() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        let t1 = mee.fetch_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        assert!(t1 > 0, "miss should cost DRAM latency");
        assert_eq!(stats.ctr_misses, 1);
        let t2 = mee.fetch_counter(
            t1,
            la(32),
            PhysAddr::new(32),
            true,
            &mut f,
            &mut v,
            &mut stats,
        );
        assert_eq!(t2, t1, "same counter sector should hit");
        assert_eq!(stats.ctr_hits, 1);
    }

    #[test]
    fn counter_miss_triggers_bmt_walk() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        mee.fetch_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        assert!(stats.bmt_misses > 0, "cold counter miss must walk the tree");
        let walked_levels = stats.bmt_misses;
        assert!(walked_levels as usize <= mee.layout.bmt().levels());
    }

    #[test]
    fn bmt_walk_stops_at_cached_node() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        mee.fetch_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        let first_walk = stats.bmt_misses;
        // A distant counter in the same level-1 group: shares upper path.
        mee.fetch_counter(
            0,
            la(8192),
            PhysAddr::new(8192),
            true,
            &mut f,
            &mut v,
            &mut stats,
        );
        let second_walk = stats.bmt_misses - first_walk;
        assert!(
            second_walk <= 1,
            "walk did not early-terminate: {second_walk}"
        );
    }

    #[test]
    fn counter_coverage_spans_2kb() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        mee.fetch_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        for off in (32..2048).step_by(32) {
            mee.fetch_counter(
                0,
                la(off),
                PhysAddr::new(off),
                true,
                &mut f,
                &mut v,
                &mut stats,
            );
        }
        assert_eq!(stats.ctr_misses, 1, "all 2 KB share one counter sector");
    }

    #[test]
    fn mac_sector_covers_512b() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        for off in (0..1024).step_by(32) {
            mee.fetch_block_mac(
                0,
                la(off),
                PhysAddr::new(off),
                true,
                &mut f,
                &mut v,
                &mut stats,
            );
        }
        assert_eq!(stats.mac_misses, 2, "1 KB of data = two MAC sectors");
        assert_eq!(stats.mac_hits, 30);
    }

    #[test]
    fn writes_dirty_metadata_and_writeback_on_flush() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        mee.update_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        mee.update_block_mac(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        let written_before = f.traffic().write[gpu_types::TrafficClass::Counter as usize];
        mee.flush(1000, &mut f, &mut v, &mut stats);
        let t = f.traffic();
        assert!(t.write[gpu_types::TrafficClass::Counter as usize] > written_before);
        assert!(t.write[gpu_types::TrafficClass::Mac as usize] > 0);
        assert!(t.write[gpu_types::TrafficClass::Bmt as usize] > 0);
    }

    #[test]
    fn clean_block_mac_suppresses_writeback() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        mee.update_block_mac(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        mee.clean_block_mac(la(0), PhysAddr::new(0));
        mee.flush(1000, &mut f, &mut v, &mut stats);
        assert_eq!(
            f.traffic().write[gpu_types::TrafficClass::Mac as usize],
            0,
            "cleaned MAC still written back"
        );
    }

    #[test]
    fn non_sectored_fetch_moves_full_line() {
        let cfg = GpuConfig::default();
        let mut mee = MeeCore::new(
            PartitionId(0),
            4 << 30,
            Addressing::Physical,
            &MdcConfig::default(),
        );
        let mut f = DramFabric::new(&cfg);
        let mut stats = SimStats::default();
        let mut v = NoVictim;
        mee.fetch_block_mac(
            0,
            la(0),
            PhysAddr::new(0),
            false,
            &mut f,
            &mut v,
            &mut stats,
        );
        assert_eq!(
            f.traffic().read[gpu_types::TrafficClass::Mac as usize],
            128,
            "naive fetch should move a whole line"
        );
    }

    #[test]
    fn counter_victims_report_hotness_to_telemetry() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        // Re-touch one hot counter sector, then stream enough distinct
        // counter lines to evict it (2 KB cache = 16 lines of 128 B).
        for _ in 0..8 {
            mee.fetch_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        }
        for i in 1..64u64 {
            let off = i * 8192; // one counter line of data span per step
            mee.fetch_counter(
                0,
                la(off),
                PhysAddr::new(off),
                true,
                &mut f,
                &mut v,
                &mut stats,
            );
        }
        assert!(
            stats.ctr_victims > 0,
            "streaming misses must evict counter lines"
        );
        assert!(
            stats.ctr_victim_uses > 0,
            "the hot line's hits must surface as hotness"
        );
    }

    #[test]
    fn bmt_walk_depths_land_in_epoch_snapshots() {
        // The walk counters are `SimStats` fields, so each telemetry epoch
        // carries its share of them.
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        // Cold counter miss walks the whole tree; a distant counter sharing
        // the upper path early-terminates, so a shallower walk is recorded.
        mee.fetch_counter(0, la(0), PhysAddr::new(0), true, &mut f, &mut v, &mut stats);
        let first_depth = stats.bmt_depth_sum;
        mee.fetch_counter(
            0,
            la(8192),
            PhysAddr::new(8192),
            true,
            &mut f,
            &mut v,
            &mut stats,
        );
        assert_eq!(stats.bmt_walks, 2, "each counter miss records one walk");
        assert_eq!(first_depth as usize, mee.layout.bmt().levels());
        let second_depth = stats.bmt_depth_sum - first_depth;
        assert!(
            (1..first_depth).contains(&second_depth),
            "the second walk stops early: {second_depth} of {first_depth} levels"
        );
    }

    #[test]
    fn chunk_mac_fetch_records_stat() {
        let (mut mee, mut f, mut stats) = setup();
        let mut v = NoVictim;
        mee.fetch_chunk_mac(0, la(0), PhysAddr::new(0), &mut f, &mut v, &mut stats);
        assert_eq!(stats.chunk_mac_accesses, 1);
    }
}
