//! Crash consistency for the secure-memory model and the sweep harness.
//!
//! Two layers, one concern: nothing the system said it durably did may be
//! silently lost or silently wrong after a power cut or a kill signal.
//!
//! **Layer 1 — model level** ([`wal`], [`crash`]).  Every logical write of
//! [`shm_metadata::SecureMemory`] lands in DRAM as four separate micro-ops
//! (ciphertext, per-block MAC, counter sector, BMT path), so a power cut
//! can tear a write between any two of them.  [`wal::WriteAheadLog`]
//! journals before/after images of each write with a group-commit flush
//! interval; [`crash::run_crash`] cuts power at an arbitrary micro-op
//! cycle, reconstructs the torn DRAM state, runs
//! [`crash::recover`]-style log replay, re-verifies every region and
//! classifies the run as clean / recovered / unrecoverable-detected —
//! asserting **zero silent divergence** against the uncrashed golden run.
//!
//! **Layer 2 — harness level** ([`journal`]).  A sweep is a list of
//! independent (benchmark, design) jobs; [`journal::JobJournal`] is a
//! durable JSONL record of completed jobs keyed by label and guarded by a
//! config hash.  The sweep runner skips already-journaled jobs, appends
//! each completion durably *as it finishes* — locally or from a worker
//! cluster, with the worker's name — and drains in-flight jobs on
//! cooperative cancellation, so `--resume` after SIGINT/SIGTERM, a kill or
//! a dead coordinator re-runs only what is missing and reproduces
//! byte-identical final tables.

pub mod crash;
pub mod journal;
pub mod wal;

pub use crash::{
    crash_sweep, run_crash, CrashConfig, CrashOutcome, CrashReport, CrashSweepReport,
    RegionOutcome, MICRO_OPS_PER_WRITE,
};
pub use journal::{JobJournal, JournalCodec, RecoveryError};
pub use wal::{WalRecord, WriteAheadLog};
