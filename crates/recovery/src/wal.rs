//! Epoch write-ahead log over secure-metadata updates.
//!
//! One [`WalRecord`] per logical write holds the before and after images of
//! everything the write touches off-chip: ciphertext, per-block MAC and the
//! counter sector (the BMT path is recomputable from the counters, so it is
//! never journaled).  Records are appended *before* the write's micro-ops
//! start and become durable in groups: the log buffer is flushed to the
//! persistence domain every `flush_interval` appends (group commit — the
//! "epoch" of the epoch WAL).
//!
//! `flush_interval == 1` is strict write-ahead logging: the record of a
//! torn write is always durable, so recovery can always redo or undo it.
//! Larger intervals trade durability for write traffic, exactly like a
//! buffered metadata cache: a crash inside an unflushed epoch leaves the
//! torn region with no journal record, and recovery can only detect and
//! quarantine it (the unrecoverable-detected outcome).

use shm_metadata::CounterSector;

/// Before/after images of one logical secure-memory write.
#[derive(Clone, Debug)]
pub struct WalRecord {
    /// Sequence number (submission order of the write).
    pub seq: usize,
    /// Block-aligned data address written.
    pub addr: u64,
    /// Stored ciphertext before the write.
    pub old_ct: [u8; 128],
    /// Stored per-block MAC before the write.
    pub old_mac: u64,
    /// Counter sector covering `addr` before the write.
    pub old_sector: CounterSector,
    /// Stored ciphertext after the write.
    pub new_ct: [u8; 128],
    /// Stored per-block MAC after the write.
    pub new_mac: u64,
    /// Counter sector covering `addr` after the write.
    pub new_sector: CounterSector,
}

/// An in-memory WAL with a durable prefix, modelling group commit.
#[derive(Clone, Debug)]
pub struct WriteAheadLog {
    records: Vec<WalRecord>,
    /// Records `0..durable` have reached the persistence domain.
    durable: usize,
    /// Appends per group commit (the epoch length); at least 1.
    flush_interval: usize,
}

impl WriteAheadLog {
    /// A fresh log flushing every `flush_interval` appends.
    pub fn new(flush_interval: usize) -> Self {
        Self {
            records: Vec::new(),
            durable: 0,
            flush_interval: flush_interval.max(1),
        }
    }

    /// Appends a record; when the unflushed epoch reaches the flush
    /// interval the whole buffer becomes durable.
    pub fn append(&mut self, record: WalRecord) {
        let _wal_phase = shm_metrics::phase::guard(shm_metrics::phase::Phase::Wal);
        self.records.push(record);
        if self.records.len() - self.durable >= self.flush_interval {
            self.durable = self.records.len();
        }
    }

    /// Forces everything appended so far durable (clean shutdown).
    pub fn flush(&mut self) {
        let _wal_phase = shm_metrics::phase::guard(shm_metrics::phase::Phase::Wal);
        self.durable = self.records.len();
    }

    /// Records that survive a power cut right now, oldest first.
    pub fn durable_records(&self) -> &[WalRecord] {
        &self.records[..self.durable]
    }

    /// The most recent *durable* record for `addr`, if any.
    pub fn durable_record_for(&self, addr: u64) -> Option<&WalRecord> {
        self.durable_records().iter().rev().find(|r| r.addr == addr)
    }

    /// Total records appended (durable or not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The configured group-commit interval.
    pub fn flush_interval(&self) -> usize {
        self.flush_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: usize, addr: u64) -> WalRecord {
        WalRecord {
            seq,
            addr,
            old_ct: [0; 128],
            old_mac: 0,
            old_sector: CounterSector::default(),
            new_ct: [1; 128],
            new_mac: 1,
            new_sector: CounterSector::default(),
        }
    }

    #[test]
    fn strict_wal_is_durable_per_append() {
        let mut log = WriteAheadLog::new(1);
        log.append(rec(0, 0x80));
        log.append(rec(1, 0x100));
        assert_eq!(log.durable_records().len(), 2);
    }

    #[test]
    fn group_commit_leaves_tail_epoch_volatile() {
        let mut log = WriteAheadLog::new(4);
        for i in 0..6 {
            log.append(rec(i, i as u64 * 128));
        }
        // First epoch of 4 flushed; the 2-record tail is volatile.
        assert_eq!(log.durable_records().len(), 4);
        assert!(log.durable_record_for(4 * 128).is_none());
        assert!(log.durable_record_for(2 * 128).is_some());
        log.flush();
        assert_eq!(log.durable_records().len(), 6);
    }

    #[test]
    fn latest_durable_record_wins_per_address() {
        let mut log = WriteAheadLog::new(1);
        log.append(rec(0, 0x80));
        log.append(rec(1, 0x80));
        assert_eq!(log.durable_record_for(0x80).expect("present").seq, 1);
    }
}
