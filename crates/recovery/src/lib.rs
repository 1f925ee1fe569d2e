//! Resumable sweeps: the durable job journal behind `--journal`,
//! `--resume` and `--crash-after-jobs`.
//!
//! A sweep is a list of independent (benchmark, design) jobs;
//! [`journal::JobJournal`] is a durable JSONL record of completed jobs
//! keyed by label and guarded by a config hash.  The sweep runner skips
//! already-journaled jobs, appends each completion durably *as it
//! finishes* and drains in-flight jobs on cooperative cancellation, so
//! `--resume` after SIGINT/SIGTERM or a kill re-runs only what is missing
//! and reproduces byte-identical final tables.

pub mod journal;

pub use journal::{JobJournal, JournalCodec, RecoveryError};
