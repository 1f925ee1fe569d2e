//! Miss-status holding registers (MSHRs) with request merging.

use gpu_types::FxHashMap;

/// Result of attempting to allocate an MSHR for a missing line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrAllocation {
    /// A new entry was allocated — the miss must be sent to the next level.
    NewMiss,
    /// The line already has an outstanding miss — this request merged.
    Merged,
    /// The entry exists but cannot merge more requests (per-entry limit).
    EntryFull,
    /// The MSHR table is full — the request must stall.
    TableFull,
}

impl MshrAllocation {
    /// Whether the request was accepted (either started or merged).
    pub fn accepted(self) -> bool {
        matches!(self, MshrAllocation::NewMiss | MshrAllocation::Merged)
    }
}

/// An MSHR table tracking outstanding misses per line address.
#[derive(Clone, Debug)]
pub struct Mshr {
    entries: FxHashMap<u64, u32>,
    max_entries: usize,
    max_merges: u32,
}

impl Mshr {
    /// Creates a table with `max_entries` entries each merging up to
    /// `max_merges` requests.
    ///
    /// # Panics
    ///
    /// Panics if either limit is zero.
    pub fn new(max_entries: usize, max_merges: u32) -> Self {
        assert!(max_entries > 0 && max_merges > 0);
        Self {
            entries: FxHashMap::default(),
            max_entries,
            max_merges,
        }
    }

    /// Attempts to register a miss on `line`.
    pub fn allocate(&mut self, line: u64) -> MshrAllocation {
        if let Some(count) = self.entries.get_mut(&line) {
            if *count >= self.max_merges {
                MshrAllocation::EntryFull
            } else {
                *count += 1;
                MshrAllocation::Merged
            }
        } else if self.entries.len() >= self.max_entries {
            MshrAllocation::TableFull
        } else {
            self.entries.insert(line, 1);
            MshrAllocation::NewMiss
        }
    }

    /// Completes the outstanding miss on `line`, returning how many requests
    /// had merged into it (0 if the line had no entry).
    pub fn complete(&mut self, line: u64) -> u32 {
        self.entries.remove(&line).unwrap_or(0)
    }

    /// Whether `line` has an outstanding miss.
    pub fn is_pending(&self, line: u64) -> bool {
        self.entries.contains_key(&line)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no outstanding misses.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the table is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = Mshr::new(2, 3);
        assert_eq!(m.allocate(0x100), MshrAllocation::NewMiss);
        assert_eq!(m.allocate(0x100), MshrAllocation::Merged);
        assert_eq!(m.allocate(0x100), MshrAllocation::Merged);
        assert_eq!(m.allocate(0x100), MshrAllocation::EntryFull);
        assert!(m.is_pending(0x100));
    }

    #[test]
    fn table_fills_up() {
        let mut m = Mshr::new(2, 16);
        assert_eq!(m.allocate(1), MshrAllocation::NewMiss);
        assert_eq!(m.allocate(2), MshrAllocation::NewMiss);
        assert_eq!(m.allocate(3), MshrAllocation::TableFull);
        assert!(m.is_full());
    }

    #[test]
    fn complete_frees_entry() {
        let mut m = Mshr::new(1, 16);
        m.allocate(7);
        m.allocate(7);
        assert_eq!(m.complete(7), 2);
        assert!(m.is_empty());
        assert_eq!(m.allocate(8), MshrAllocation::NewMiss);
    }

    #[test]
    fn complete_unknown_line_is_zero() {
        let mut m = Mshr::new(1, 1);
        assert_eq!(m.complete(99), 0);
    }

    #[test]
    fn accepted_helper() {
        assert!(MshrAllocation::NewMiss.accepted());
        assert!(MshrAllocation::Merged.accepted());
        assert!(!MshrAllocation::EntryFull.accepted());
        assert!(!MshrAllocation::TableFull.accepted());
    }
}
