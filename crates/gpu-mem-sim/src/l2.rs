//! The L2 cache bank model: sectored cache + MSHRs + miss-rate sampler +
//! victim-store support for security metadata (Section IV-D).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gpu_types::{FxHashMap, GpuConfig, SECTORS_PER_BLOCK, SECTOR_BYTES};
use secure_core::VictimStore;
use shm_cache::{Eviction, Lookup, MissSampler, Mshr, MshrAllocation, SectoredCache};

/// L2 hit latency in core cycles.
pub const L2_HIT_LATENCY: u64 = 30;

/// Outcome of an L2 data access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2Outcome {
    /// Hit: data available after the hit latency.
    Hit,
    /// Miss already outstanding: completes with the pending fill.
    MergedMiss {
        /// Completion cycle of the pending fill.
        ready_at: u64,
    },
    /// New miss: the caller must fetch from memory and call
    /// [`L2Bank::complete_fill`].
    Miss,
    /// Write allocated in place (write-validate, no fetch needed).
    WriteAllocated,
}

/// One L2 bank: cache state, MSHRs, sampled miss rate and deferred
/// write-backs produced by victim insertions.
#[derive(Debug)]
pub struct L2Bank {
    cache: SectoredCache,
    mshr: Mshr,
    /// Outstanding sector fills, keyed by sector address.  This is the
    /// hottest map in the simulator (touched on every L2 access), so it
    /// uses the in-tree FxHash hasher instead of SipHash.
    pending: FxHashMap<u64, u64>,
    /// Min-heap of `(ready_at, sector_addr)` used to retire outstanding
    /// fills as simulated time advances.
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    sampler: MissSampler,
    /// Dirty lines displaced by victim insertions or dirty probes, to be
    /// written back through the MEE by the simulator.
    deferred_writebacks: Vec<Eviction>,
    /// Evictions caused by regular data fills (written back via the MEE).
    data_evictions: Vec<Eviction>,
    /// Reads that found the MSHR table full (backpressure events).
    mshr_stalls: u64,
}

impl L2Bank {
    /// Builds one bank from the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self {
            cache: SectoredCache::new(
                cfg.l2_bank_bytes,
                128,
                cfg.l2_assoc,
                SECTORS_PER_BLOCK as u32,
            ),
            mshr: Mshr::new(cfg.l2_mshr_entries as usize, cfg.l2_mshr_merges),
            pending: FxHashMap::default(),
            completions: BinaryHeap::new(),
            sampler: MissSampler::new(8),
            deferred_writebacks: Vec::new(),
            data_evictions: Vec::new(),
            mshr_stalls: 0,
        }
    }

    /// Reads that stalled because every MSHR entry was busy.
    pub fn mshr_stalls(&self) -> u64 {
        self.mshr_stalls
    }

    /// Performs a data read of the sector at `addr` (bank-local address).
    ///
    /// Misses are tracked at *sector* granularity: a request merges only
    /// with an outstanding fetch of the same 32 B sector; a different
    /// missing sector of a pending line issues its own DRAM fetch (sectored
    /// fills, GPGPU-Sim style).
    pub fn read(&mut self, now: u64, addr: u64) -> L2Outcome {
        let mask = self.cache.sector_mask_of(addr);
        let line = self.cache.line_base(addr);
        let sector = addr & !(SECTOR_BYTES - 1);
        let set = self.cache.set_index(addr);
        match self.cache.lookup(addr, mask) {
            Lookup::Hit => {
                self.sampler.record(set, true);
                L2Outcome::Hit
            }
            Lookup::SectorMiss { .. } | Lookup::LineMiss => {
                self.sampler.record(set, false);
                if let Some(&ready_at) = self.pending.get(&sector) {
                    let _ = self.mshr.allocate(line);
                    L2Outcome::MergedMiss { ready_at }
                } else {
                    match self.mshr.allocate(line) {
                        MshrAllocation::NewMiss | MshrAllocation::Merged => L2Outcome::Miss,
                        // Table-full: modelled as a merged completion with the
                        // earliest outstanding fill (simple backpressure).
                        _ => {
                            self.mshr_stalls += 1;
                            L2Outcome::MergedMiss {
                                ready_at: self
                                    .pending
                                    .values()
                                    .copied()
                                    .min()
                                    .unwrap_or(now + L2_HIT_LATENCY),
                            }
                        }
                    }
                }
            }
        }
    }

    /// Performs a data write of the sector at `addr`.  GPU L2s are
    /// write-back/write-validate: a full-sector write allocates without
    /// fetching.  Dirty evictions are queued for MEE processing.
    pub fn write(&mut self, addr: u64) -> L2Outcome {
        let mask = self.cache.sector_mask_of(addr);
        let set = self.cache.set_index(addr);
        let hit = self.cache.probe(addr, mask);
        self.sampler.record(set, hit);
        if let Some(ev) = self.cache.fill(addr, mask) {
            if ev.is_dirty() {
                self.data_evictions.push(ev);
            }
        }
        self.cache.mark_dirty(addr, mask);
        if hit {
            L2Outcome::Hit
        } else {
            L2Outcome::WriteAllocated
        }
    }

    /// Registers the completion of an outstanding sector fill.
    ///
    /// Returns the dirty line evicted by the fill, if any (to be written
    /// back through the MEE).
    pub fn complete_fill(&mut self, addr: u64, _ready_at: u64) -> Option<Eviction> {
        let line = self.cache.line_base(addr);
        let sector = addr & !(SECTOR_BYTES - 1);
        self.mshr.complete(line);
        self.pending.remove(&sector);
        let mask = self.cache.sector_mask_of(addr);
        self.cache.fill(addr, mask).filter(Eviction::is_dirty)
    }

    /// Records the expected completion time of a newly issued sector miss so
    /// later accesses to the same sector can merge with it.
    pub fn note_pending(&mut self, addr: u64, ready_at: u64) {
        let sector = addr & !(SECTOR_BYTES - 1);
        self.pending.insert(sector, ready_at);
        self.completions.push(Reverse((ready_at, sector)));
    }

    /// Earliest outstanding fill completion, if any — lets the caller skip
    /// [`Self::drain_completed_into`] entirely with one heap peek.
    #[inline]
    pub fn next_completion_at(&self) -> Option<u64> {
        self.completions.peek().map(|&Reverse((ready, _))| ready)
    }

    /// Retires every outstanding fill whose completion time has passed,
    /// freeing its MSHR entry and filling its sector.  Returns the dirty
    /// lines those fills evicted (to be written back through the MEE).
    pub fn drain_completed(&mut self, now: u64) -> Vec<Eviction> {
        let mut evicted = Vec::new();
        self.drain_completed_into(now, &mut evicted);
        evicted
    }

    /// Like [`Self::drain_completed`] but appends into a caller-owned scratch
    /// vector, so the per-access hot path never allocates.
    pub fn drain_completed_into(&mut self, now: u64, evicted: &mut Vec<Eviction>) {
        while let Some(&Reverse((ready, sector))) = self.completions.peek() {
            if ready > now {
                break;
            }
            self.completions.pop();
            // Skip stale heap entries (sector already completed elsewhere).
            if self.pending.get(&sector) == Some(&ready) {
                if let Some(ev) = self.complete_fill(sector, ready) {
                    evicted.push(ev);
                }
            }
        }
    }

    /// True when a data fill/write queued a dirty eviction.
    #[inline]
    pub fn has_data_evictions(&self) -> bool {
        !self.data_evictions.is_empty()
    }

    /// Moves queued data evictions into `out`, keeping the bank's capacity.
    pub fn drain_data_evictions_into(&mut self, out: &mut Vec<Eviction>) {
        out.append(&mut self.data_evictions);
    }

    /// Drains deferred write-backs produced by victim-cache activity.
    pub fn take_deferred_writebacks(&mut self) -> Vec<Eviction> {
        std::mem::take(&mut self.deferred_writebacks)
    }

    /// True when victim-cache activity queued a deferred write-back.
    #[inline]
    pub fn has_deferred_writebacks(&self) -> bool {
        !self.deferred_writebacks.is_empty()
    }

    /// Moves queued deferred write-backs into `out`, keeping capacity.
    pub fn drain_deferred_writebacks_into(&mut self, out: &mut Vec<Eviction>) {
        out.append(&mut self.deferred_writebacks);
    }

    /// Returns the bank to its just-built state while keeping every
    /// allocation (cache sets, MSHR map, heaps), so a pooled bank can be
    /// reused across jobs without reallocating.
    pub fn reset(&mut self) {
        self.cache.reset();
        self.mshr.clear();
        self.pending.clear();
        self.completions.clear();
        self.sampler.reset();
        self.deferred_writebacks.clear();
        self.data_evictions.clear();
        self.mshr_stalls = 0;
    }

    /// Flushes the bank (kernel boundary), returning dirty lines.
    pub fn flush(&mut self) -> Vec<Eviction> {
        self.pending.clear();
        self.completions.clear();
        self.cache
            .flush()
            .into_iter()
            .filter(Eviction::is_dirty)
            .collect()
    }

    /// The sampled data miss rate, if enough samples accumulated.
    pub fn sampled_miss_rate(&self) -> Option<f64> {
        self.sampler.miss_rate(32)
    }

    /// Resets the miss-rate sampler (each kernel, per the paper).
    pub fn reset_sampler(&mut self) {
        self.sampler.reset();
    }
}

impl VictimStore for L2Bank {
    fn probe_victim(&mut self, addr: u64, sectors: u8) -> bool {
        if self.cache.probe(addr, sectors) {
            if let Some(ev) = self.cache.invalidate(addr) {
                if ev.is_dirty() {
                    // The dirty metadata migrates back to the MDC as clean;
                    // persist it so no update is lost.
                    self.deferred_writebacks.push(ev);
                }
            }
            true
        } else {
            false
        }
    }

    fn insert_victim(&mut self, addr: u64, valid_sectors: u8, dirty_sectors: u8) -> bool {
        if valid_sectors == 0 {
            return false;
        }
        if let Some(ev) = self.cache.fill(addr, valid_sectors) {
            if ev.is_dirty() {
                self.deferred_writebacks.push(ev);
            }
        }
        if dirty_sectors != 0 {
            self.cache.mark_dirty(addr, dirty_sectors);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::GpuConfig;

    fn bank() -> L2Bank {
        L2Bank::new(&GpuConfig::default())
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut b = bank();
        assert_eq!(b.read(0, 0x1000), L2Outcome::Miss);
        b.note_pending(0x1000, 500);
        assert_eq!(b.read(10, 0x1000), L2Outcome::MergedMiss { ready_at: 500 });
        b.complete_fill(0x1000, 500);
        assert_eq!(b.read(600, 0x1000), L2Outcome::Hit);
    }

    #[test]
    fn write_allocates_without_fetch() {
        let mut b = bank();
        assert_eq!(b.write(0x2000), L2Outcome::WriteAllocated);
        assert_eq!(b.write(0x2000), L2Outcome::Hit);
        assert_eq!(b.read(0, 0x2000), L2Outcome::Hit, "written sector readable");
    }

    #[test]
    fn flush_returns_dirty_lines() {
        let mut b = bank();
        b.write(0x2000);
        b.write(0x3000);
        b.read(0, 0x4000); // clean miss, no dirty line
        let dirty = b.flush();
        assert_eq!(dirty.len(), 2);
    }

    #[test]
    fn victim_insert_and_probe_roundtrip() {
        let mut b = bank();
        let meta_addr = 0x10_0000;
        assert!(b.insert_victim(meta_addr, 0b0001, 0));
        assert!(b.probe_victim(meta_addr, 0b0001));
        assert!(
            !b.probe_victim(meta_addr, 0b0001),
            "probe consumes the line"
        );
    }

    #[test]
    fn dirty_victim_probe_defers_writeback() {
        let mut b = bank();
        let meta_addr = 0x10_0000;
        b.insert_victim(meta_addr, 0b0001, 0b0001);
        assert!(b.probe_victim(meta_addr, 0b0001));
        let wb = b.take_deferred_writebacks();
        assert_eq!(wb.len(), 1);
        assert!(wb[0].is_dirty());
    }

    #[test]
    fn sampler_sees_miss_rate() {
        let mut b = bank();
        // Stream far apart so every access misses and lands on many sets.
        for i in 0..20_000u64 {
            let _ = b.read(i, i * 128);
            b.note_pending(i * 128, i + 100);
            b.complete_fill(i * 128, i + 100);
        }
        let rate = b.sampled_miss_rate().expect("enough samples");
        assert!(rate > 0.9, "rate={rate}");
    }

    #[test]
    fn mshr_full_degrades_to_merge() {
        let cfg = GpuConfig {
            l2_mshr_entries: 2,
            ..GpuConfig::default()
        };
        let mut b = L2Bank::new(&cfg);
        assert_eq!(b.read(0, 0), L2Outcome::Miss);
        b.note_pending(0, 400);
        assert_eq!(b.read(0, 128), L2Outcome::Miss);
        b.note_pending(128, 450);
        match b.read(0, 256) {
            L2Outcome::MergedMiss { ready_at } => assert_eq!(ready_at, 400),
            other => panic!("expected merged backpressure, got {other:?}"),
        }
    }
}
