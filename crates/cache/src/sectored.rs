//! A set-associative, sectored, write-back cache with LRU replacement.

use std::ops::Range;

/// Outcome of a cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// The line is present and every requested sector is valid.
    Hit,
    /// The line is present but at least one requested sector is invalid
    /// (a "sector miss": only the missing sectors must be fetched).
    SectorMiss {
        /// Mask of requested sectors that are missing.
        missing: u8,
    },
    /// The line is not present at all.
    LineMiss,
}

/// A line evicted by a fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// Line-aligned address of the evicted line.
    pub addr: u64,
    /// Mask of sectors that were dirty and must be written back.
    pub dirty_sectors: u8,
    /// Mask of sectors that were valid (used by victim caching).
    pub valid_sectors: u8,
    /// Lookup hits the line served while resident — its hotness at eviction
    /// time (victim-policy telemetry).
    pub uses: u64,
}

impl Eviction {
    /// Whether the eviction produces any write-back traffic.
    pub fn is_dirty(&self) -> bool {
        self.dirty_sectors != 0
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid_sectors: u8,
    dirty_sectors: u8,
    lru: u64,
    uses: u64,
}

impl Way {
    fn is_valid(&self) -> bool {
        self.valid_sectors != 0
    }
}

/// A set-associative cache whose lines are divided into sectors that are
/// valid and dirty independently.
///
/// Addresses are raw `u64` byte addresses; the caller chooses the address
/// space (physical for the L2, metadata-local for the MDCs).  With
/// `sectors_per_line == 1` this degrades to a conventional non-sectored
/// cache.
#[derive(Clone, Debug)]
pub struct SectoredCache {
    /// Every way of every set in one allocation: set `s` is
    /// `ways[s * assoc..(s + 1) * assoc]`.
    ways: Vec<Way>,
    assoc: usize,
    num_sets: u64,
    line_bytes: u64,
    sectors_per_line: u32,
    sector_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SectoredCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines,
    /// `assoc`-way associativity and `sectors_per_line` sectors.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// whole sets, or non-power-of-two line size).
    pub fn new(capacity_bytes: u64, line_bytes: u64, assoc: u32, sectors_per_line: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            (1..=8).contains(&sectors_per_line),
            "1..=8 sectors supported"
        );
        assert!(line_bytes.is_multiple_of(sectors_per_line as u64));
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= assoc as u64,
            "capacity too small for associativity"
        );
        let num_sets = lines / assoc as u64;
        assert!(
            num_sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        Self {
            ways: vec![Way::default(); (num_sets * assoc as u64) as usize],
            assoc: assoc as usize,
            num_sets,
            line_bytes,
            sectors_per_line,
            sector_bytes: line_bytes / sectors_per_line as u64,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Line-aligned address for `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Sector index of `addr` within its line.
    pub fn sector_of(&self, addr: u64) -> u32 {
        ((addr % self.line_bytes) / self.sector_bytes) as u32
    }

    /// Single-sector mask for `addr`.
    pub fn sector_mask_of(&self, addr: u64) -> u8 {
        1u8 << self.sector_of(addr)
    }

    /// Mask covering every sector of a line.
    pub fn full_mask(&self) -> u8 {
        if self.sectors_per_line == 8 {
            0xFF
        } else {
            (1u8 << self.sectors_per_line) - 1
        }
    }

    /// Bytes per sector.
    pub fn sector_bytes(&self) -> u64 {
        self.sector_bytes
    }

    /// Bytes per line.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (line + sector misses).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The slots of `ways` holding the set `line` maps to.
    fn set_of(&self, line: u64) -> Range<usize> {
        let set = ((line / self.line_bytes) % self.num_sets) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Set index a raw address maps to (used by set-sampling monitors).
    pub fn set_index(&self, addr: u64) -> u64 {
        (self.line_base(addr) / self.line_bytes) % self.num_sets
    }

    /// Looks up `sectors` of the line containing `addr`, updating LRU and
    /// hit/miss counters.
    pub fn lookup(&mut self, addr: u64, sectors: u8) -> Lookup {
        let line = self.line_base(addr);
        let set = self.set_of(line);
        self.tick += 1;
        let tick = self.tick;
        for way in &mut self.ways[set] {
            if way.is_valid() && way.tag == line {
                way.lru = tick;
                let missing = sectors & !way.valid_sectors;
                return if missing == 0 {
                    self.hits += 1;
                    way.uses += 1;
                    Lookup::Hit
                } else {
                    self.misses += 1;
                    Lookup::SectorMiss { missing }
                };
            }
        }
        self.misses += 1;
        Lookup::LineMiss
    }

    /// Non-destructive probe: whether `sectors` of the line are all valid.
    pub fn probe(&self, addr: u64, sectors: u8) -> bool {
        let line = self.line_base(addr);
        let set = self.set_of(line);
        self.ways[set]
            .iter()
            .any(|w| w.is_valid() && w.tag == line && sectors & !w.valid_sectors == 0)
    }

    /// Fills `sectors` of the line containing `addr`, allocating a way if
    /// needed.  Returns the eviction this causes, if any.
    pub fn fill(&mut self, addr: u64, sectors: u8) -> Option<Eviction> {
        let line = self.line_base(addr);
        let set = self.set_of(line);
        self.tick += 1;
        let tick = self.tick;

        // Already present: merge sectors.
        if let Some(way) = self.ways[set.clone()]
            .iter_mut()
            .find(|w| w.is_valid() && w.tag == line)
        {
            way.valid_sectors |= sectors;
            way.lru = tick;
            return None;
        }

        // Free way?
        if let Some(way) = self.ways[set.clone()].iter_mut().find(|w| !w.is_valid()) {
            *way = Way {
                tag: line,
                valid_sectors: sectors,
                dirty_sectors: 0,
                lru: tick,
                uses: 0,
            };
            return None;
        }

        // Evict LRU.
        let way = self.ways[set]
            .iter_mut()
            .min_by_key(|w| w.lru)
            .expect("set is non-empty");
        let victim = *way;
        *way = Way {
            tag: line,
            valid_sectors: sectors,
            dirty_sectors: 0,
            lru: tick,
            uses: 0,
        };
        Some(Eviction {
            addr: victim.tag,
            dirty_sectors: victim.dirty_sectors,
            valid_sectors: victim.valid_sectors,
            uses: victim.uses,
        })
    }

    /// Marks `sectors` of the (present) line dirty.
    ///
    /// Returns `false` if the line is absent — the caller must `fill` first
    /// (write-allocate).
    pub fn mark_dirty(&mut self, addr: u64, sectors: u8) -> bool {
        let line = self.line_base(addr);
        let set = self.set_of(line);
        if let Some(way) = self.ways[set]
            .iter_mut()
            .find(|w| w.is_valid() && w.tag == line)
        {
            way.valid_sectors |= sectors;
            way.dirty_sectors |= sectors;
            true
        } else {
            false
        }
    }

    /// Clears the dirty bits of `sectors` of the line, if present.
    ///
    /// The SHM dual-granularity MAC controller marks freshly produced
    /// block-level MACs of a streaming chunk "not dirty" so they never
    /// generate write-back traffic (Section IV-C).
    pub fn clear_dirty(&mut self, addr: u64, sectors: u8) {
        let line = self.line_base(addr);
        let set = self.set_of(line);
        if let Some(way) = self.ways[set]
            .iter_mut()
            .find(|w| w.is_valid() && w.tag == line)
        {
            way.dirty_sectors &= !sectors;
        }
    }

    /// Invalidates a line, returning its eviction record if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<Eviction> {
        let line = self.line_base(addr);
        let set = self.set_of(line);
        if let Some(way) = self.ways[set]
            .iter_mut()
            .find(|w| w.is_valid() && w.tag == line)
        {
            let ev = Eviction {
                addr: way.tag,
                dirty_sectors: way.dirty_sectors,
                valid_sectors: way.valid_sectors,
                uses: way.uses,
            };
            *way = Way::default();
            Some(ev)
        } else {
            None
        }
    }

    /// Drains every valid line (end-of-kernel flush), returning evictions.
    pub fn flush(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        for way in &mut self.ways {
            if way.is_valid() {
                out.push(Eviction {
                    addr: way.tag,
                    dirty_sectors: way.dirty_sectors,
                    valid_sectors: way.valid_sectors,
                    uses: way.uses,
                });
                *way = Way::default();
            }
        }
        out
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.is_valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> SectoredCache {
        // 2 sets x 2 ways x 128 B lines, 4 sectors.
        SectoredCache::new(512, 128, 2, 4)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x100, 0b0001), Lookup::LineMiss);
        assert_eq!(c.fill(0x100, 0b0001), None);
        assert_eq!(c.lookup(0x100, 0b0001), Lookup::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn sector_miss_reports_missing_mask() {
        let mut c = small();
        c.fill(0x100, 0b0001);
        match c.lookup(0x100, 0b0111) {
            Lookup::SectorMiss { missing } => assert_eq!(missing, 0b0110),
            other => panic!("expected sector miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0x000 and 0x400 (2 sets of 128 B lines: set = (addr/128)%2).
        c.fill(0x000, 0b1111);
        c.fill(0x400, 0b1111);
        // Touch 0x000 so 0x400 becomes LRU.
        assert_eq!(c.lookup(0x000, 0b0001), Lookup::Hit);
        let ev = c.fill(0x800, 0b1111).expect("eviction expected");
        assert_eq!(ev.addr, 0x400);
    }

    #[test]
    fn dirty_eviction_reports_dirty_sectors() {
        let mut c = small();
        c.fill(0x000, 0b1111);
        assert!(c.mark_dirty(0x020, 0b0010));
        c.fill(0x400, 0b1111);
        let ev = c.fill(0x800, 0b1111).expect("eviction");
        assert_eq!(ev.addr, 0x000);
        assert_eq!(ev.dirty_sectors, 0b0010);
        assert!(ev.is_dirty());
    }

    #[test]
    fn clear_dirty_suppresses_writeback() {
        let mut c = small();
        c.fill(0x000, 0b1111);
        c.mark_dirty(0x000, 0b1111);
        c.clear_dirty(0x000, 0b1111);
        c.fill(0x400, 0b1111);
        let ev = c.fill(0x800, 0b1111).expect("eviction");
        assert!(!ev.is_dirty());
    }

    #[test]
    fn eviction_carries_hotness() {
        let mut c = small();
        c.fill(0x000, 0b1111);
        for _ in 0..5 {
            assert_eq!(c.lookup(0x000, 0b0001), Lookup::Hit);
        }
        c.fill(0x400, 0b1111);
        // Touch 0x000 again so 0x400 (never hit) becomes LRU.
        assert_eq!(c.lookup(0x000, 0b0001), Lookup::Hit);
        let ev = c.fill(0x800, 0b1111).expect("eviction");
        assert_eq!(ev.addr, 0x400);
        assert_eq!(ev.uses, 0, "never-hit line evicts with zero hotness");
        let ev = c.fill(0xC00, 0b1111).expect("eviction");
        assert_eq!(ev.addr, 0x000);
        assert_eq!(ev.uses, 6, "hotness counts lookup hits while resident");
    }

    #[test]
    fn mark_dirty_requires_presence() {
        let mut c = small();
        assert!(!c.mark_dirty(0x100, 0b0001));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x100, 0b1111);
        c.mark_dirty(0x100, 0b0001);
        let ev = c.invalidate(0x100).expect("was present");
        assert_eq!(ev.dirty_sectors, 0b0001);
        assert_eq!(c.lookup(0x100, 0b0001), Lookup::LineMiss);
        assert!(c.invalidate(0x100).is_none());
    }

    #[test]
    fn flush_returns_all_lines() {
        let mut c = small();
        c.fill(0x000, 0b1111);
        c.fill(0x080, 0b0001);
        c.fill(0x100, 0b0011);
        let evs = c.flush();
        assert_eq!(evs.len(), 3);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn fill_merges_sectors() {
        let mut c = small();
        c.fill(0x100, 0b0001);
        assert_eq!(c.fill(0x120, 0b0010), None);
        assert_eq!(c.lookup(0x100, 0b0011), Lookup::Hit);
    }

    #[test]
    fn non_sectored_mode() {
        let mut c = SectoredCache::new(512, 128, 2, 1);
        assert_eq!(c.full_mask(), 0b1);
        c.fill(0x100, 0b1);
        assert_eq!(c.lookup(0x17F, 0b1), Lookup::Hit, "whole line valid");
    }

    #[test]
    fn mdc_geometry_from_table_vi() {
        // 2 KB, 128 B lines, 4-way: 4 sets.
        let c = SectoredCache::new(2048, 128, 4, 4);
        assert_eq!(c.num_sets(), 4);
    }

    proptest! {
        #[test]
        fn prop_occupancy_bounded(addrs in proptest::collection::vec(0u64..1 << 16, 1..200)) {
            let mut c = SectoredCache::new(2048, 128, 4, 4);
            for a in addrs {
                c.fill(a, 0b1111);
                prop_assert!(c.occupancy() <= 16);
            }
        }

        #[test]
        fn prop_probe_after_fill(addr in 0u64..1 << 20, sectors in 1u8..16) {
            let mut c = SectoredCache::new(2048, 128, 4, 4);
            c.fill(addr, sectors);
            prop_assert!(c.probe(addr, sectors));
        }

        #[test]
        fn prop_evictions_never_exceed_fills(addrs in proptest::collection::vec(0u64..1 << 14, 1..300)) {
            let mut c = SectoredCache::new(1024, 128, 2, 4);
            let mut evictions = 0usize;
            for a in &addrs {
                if c.fill(*a, 0b1111).is_some() {
                    evictions += 1;
                }
            }
            prop_assert!(evictions <= addrs.len());
        }
    }
}
