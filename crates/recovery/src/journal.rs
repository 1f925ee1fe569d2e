//! Durable job journal.
//!
//! A sweep is a list of independent jobs with stable string labels (e.g.
//! `"fdtd2d under SHM"`).  [`JobJournal`] is an append-only JSONL file: a
//! leading `journal_meta` line carrying a config hash, then one `job` line
//! per completed job with its encoded result.  Each completion is appended
//! and synced *as it happens*, so a SIGKILL at any instant leaves at most
//! one torn final line — which [`JobJournal::open`] tolerates and drops.
//! A label recorded twice (a distributed job re-run after its first
//! producer was quarantined) resolves to its last line.
//!
//! The sweep runner (`shm_bench::Sweep`) skips journaled jobs, decodes
//! their results back, and appends the rest as they finish — so a resumed
//! sweep renders the exact bytes an uninterrupted one would.  The config
//! hash guards against resuming with a different benchmark set, scale or
//! design list.

use gpu_types::json;
use gpu_types::{SimStats, StatValue};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Journal format version; bump on any schema change.
pub const JOURNAL_VERSION: u32 = 1;

/// How a job result crosses the journal boundary.  Implementations must
/// round-trip exactly: `decode(encode(x)) == x`, or resumed tables would
/// not be byte-identical.
pub trait JournalCodec: Sized {
    /// Appends the JSON value encoding `self` (no surrounding whitespace).
    fn encode_journal(&self, out: &mut String);
    /// Parses a value previously produced by [`Self::encode_journal`].
    fn decode_journal(payload: &str) -> Option<Self>;
}

/// A flat object with one member per [`SimStats::visit`] value, in
/// declaration order.
impl JournalCodec for SimStats {
    fn encode_journal(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('{');
        self.visit(|name, value| {
            let _ = write!(out, "\"{name}\":");
            match value {
                StatValue::Count(v) => {
                    let _ = write!(out, "{v}");
                }
                StatValue::PerClass(arr) => {
                    out.push('[');
                    for v in arr {
                        let _ = write!(out, "{v},");
                    }
                    out.pop();
                    out.push(']');
                }
            }
            out.push(',');
        });
        out.pop();
        out.push('}');
    }

    fn decode_journal(payload: &str) -> Option<Self> {
        let mut stats = SimStats::default();
        let mut complete = true;
        SimStats::default().visit(|name, kind| {
            let value = match kind {
                StatValue::Count(_) => json::u64_field(payload, name).map(StatValue::Count),
                StatValue::PerClass(_) => json::u64_array(payload, name).map(StatValue::PerClass),
            };
            complete &= value.is_some_and(|v| stats.set(name, v));
        });
        complete.then_some(stats)
    }
}

/// Anything the crash-consistency layer can fail with.
#[derive(Debug)]
pub enum RecoveryError {
    /// Journal file I/O failed.
    Io(std::io::Error),
    /// The journal on disk was written under a different configuration.
    ConfigMismatch {
        /// Journal file path.
        path: PathBuf,
        /// Hash the caller's configuration produces.
        expected: u64,
        /// Hash stored in the journal.
        found: u64,
    },
    /// A non-final journal line failed to parse (real corruption — a torn
    /// *final* line is tolerated and dropped instead).
    Corrupt {
        /// Journal file path.
        path: PathBuf,
        /// 1-based line number of the offending record.
        line: usize,
    },
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "journal I/O error: {e}"),
            RecoveryError::ConfigMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {} was written under a different configuration \
                 (expected hash {expected:#018x}, found {found:#018x}); \
                 delete it or re-run without --resume",
                path.display()
            ),
            RecoveryError::Corrupt { path, line } => {
                write!(f, "journal {} is corrupt at line {line}", path.display())
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// A durable JSONL record of completed sweep jobs, keyed by label.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    file: std::fs::File,
    completed: BTreeMap<String, String>,
    /// Which worker produced each result (distributed sweeps only; local
    /// sweeps record no attribution).
    workers: BTreeMap<String, String>,
}

impl JobJournal {
    /// Opens (or creates) the journal at `path` for the configuration
    /// hashed as `config_hash`.
    ///
    /// An existing journal is validated — its meta line must carry the same
    /// version and config hash — and its complete `job` lines are loaded.
    /// A torn final line (crash mid-append) is dropped silently; a torn
    /// line anywhere else is reported as [`RecoveryError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Io`], [`RecoveryError::ConfigMismatch`] or
    /// [`RecoveryError::Corrupt`].
    pub fn open(path: impl AsRef<Path>, config_hash: u64) -> Result<Self, RecoveryError> {
        let path = path.as_ref().to_path_buf();
        let existing = match std::fs::read_to_string(&path) {
            Ok(s) => Some(s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };

        let mut completed = BTreeMap::new();
        let mut workers = BTreeMap::new();
        let mut needs_meta = true;
        if let Some(doc) = &existing {
            let lines: Vec<&str> = doc.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let is_last = i + 1 == lines.len();
                if i == 0 {
                    match parse_meta(line) {
                        Some((version, found)) => {
                            if version != JOURNAL_VERSION || found != config_hash {
                                return Err(RecoveryError::ConfigMismatch {
                                    path,
                                    expected: config_hash,
                                    found,
                                });
                            }
                            needs_meta = false;
                        }
                        None if is_last => break, // torn meta: rewrite below
                        None => return Err(RecoveryError::Corrupt { path, line: 1 }),
                    }
                    continue;
                }
                match parse_job(line) {
                    Some((label, worker, payload)) => {
                        if let Some(w) = worker {
                            workers.insert(label.clone(), w);
                        }
                        completed.insert(label, payload);
                    }
                    None if is_last => {} // torn final record: drop it
                    None => return Err(RecoveryError::Corrupt { path, line: i + 1 }),
                }
            }
        }

        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if needs_meta {
            // Fresh (or torn-before-meta) journal: start it with the guard.
            let line = format!(
                "{{\"type\":\"journal_meta\",\"version\":{JOURNAL_VERSION},\
                 \"config_hash\":\"{config_hash:016x}\"}}\n"
            );
            file.write_all(line.as_bytes())?;
            file.sync_data()?;
        }
        Ok(Self {
            path,
            file,
            completed,
            workers,
        })
    }

    /// Journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed jobs on record.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// True when no job has completed yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// True when `label` has a completed result on record.
    pub fn contains(&self, label: &str) -> bool {
        self.completed.contains_key(label)
    }

    /// Labels of every completed job, sorted.
    pub fn completed_labels(&self) -> Vec<&str> {
        self.completed.keys().map(String::as_str).collect()
    }

    /// Decodes the recorded result for `label`, if present and readable.
    pub fn get<T: JournalCodec>(&self, label: &str) -> Option<T> {
        T::decode_journal(self.completed.get(label)?)
    }

    /// Appends one completed job durably: the whole line is written in a
    /// single call and synced before this returns, so a crash can tear at
    /// most the line being appended — never an earlier record.
    ///
    /// # Errors
    ///
    /// Propagates file write/sync errors.
    pub fn record<T: JournalCodec>(&mut self, label: &str, value: &T) -> std::io::Result<()> {
        self.record_with_worker(label, None, value)
    }

    /// [`JobJournal::record`], attributing the result to the distributed
    /// worker that produced it.  The attribution is informational — resume
    /// matches on labels only, so a journal written by a cluster resumes
    /// fine locally and vice versa.
    ///
    /// # Errors
    ///
    /// Propagates file write/sync errors.
    pub fn record_with_worker<T: JournalCodec>(
        &mut self,
        label: &str,
        worker: Option<&str>,
        value: &T,
    ) -> std::io::Result<()> {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"job\",\"label\":\"");
        json::escape_into(label, &mut line);
        line.push('"');
        if let Some(w) = worker {
            line.push_str(",\"worker\":\"");
            json::escape_into(w, &mut line);
            line.push('"');
        }
        line.push_str(",\"payload\":");
        let mut payload = String::new();
        value.encode_journal(&mut payload);
        line.push_str(&payload);
        line.push_str("}\n");
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()?;
        self.completed.insert(label.to_string(), payload);
        if let Some(w) = worker {
            self.workers.insert(label.to_string(), w.to_string());
        }
        Ok(())
    }

    /// Which worker produced the result for `label`, when the journal was
    /// written by a distributed sweep.
    pub fn worker_of(&self, label: &str) -> Option<&str> {
        self.workers.get(label).map(String::as_str)
    }
}

/// Parses the `journal_meta` line into `(version, config_hash)`.
fn parse_meta(line: &str) -> Option<(u32, u64)> {
    if !line.starts_with("{\"type\":\"journal_meta\"") || !line.ends_with('}') {
        return None;
    }
    let version = json::u64_field(line, "version")? as u32;
    let hash = json::str_field(line, "config_hash")?;
    Some((version, u64::from_str_radix(&hash, 16).ok()?))
}

/// Parses a `job` line into `(label, worker, payload)`.  The `worker`
/// field is optional — local sweeps never write it — so journals from
/// before the distributed backend still parse.
fn parse_job(line: &str) -> Option<(String, Option<String>, String)> {
    if !line.starts_with("{\"type\":\"job\",\"label\":\"") || !line.ends_with('}') {
        return None;
    }
    let label = json::str_field(line, "label")?;
    let worker = match json::raw(line, "worker") {
        Some(_) => Some(json::str_field(line, "worker")?),
        None => None,
    };
    let payload = json::raw(line, "payload")?;
    Some((label, worker, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::TrafficBytes;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("shm-journal-{}-{name}.jsonl", std::process::id()))
    }

    fn stats(k: u64) -> SimStats {
        SimStats {
            cycles: 100 + k,
            instructions: 200 + k,
            accesses: 300 + k,
            l2_hits: 1 + k,
            l2_misses: 2 + k,
            l2_writebacks: 3 + k,
            ctr_hits: 4 + k,
            ctr_misses: 5 + k,
            mac_hits: 6 + k,
            mac_misses: 7 + k,
            bmt_hits: 8 + k,
            bmt_misses: 9 + k,
            victim_hits: 10 + k,
            traffic: TrafficBytes {
                read: [k, k + 1, k + 2, k + 3, k + 4],
                write: [k + 5, k + 6, k + 7, k + 8, k + 9],
            },
            readonly_fast_path: 11 + k,
            chunk_mac_accesses: 12 + k,
            stream_mispredictions: 13 + k,
            readonly_mispredictions: 14 + k,
            lat_sum: 15 + k,
            lat_max: 16 + k,
            dram_requests: 17 + k,
            pool_migrations: 18 + k,
            pool_spills: 19 + k,
            pool_cpu_accesses: 20 + k,
            pool_capacity_events: 21 + k,
            link_bytes_to_gpu: 22 + k,
            link_bytes_to_cpu: 23 + k,
        }
    }

    #[test]
    fn sim_stats_codec_roundtrips_exactly() {
        let s = stats(41);
        let mut enc = String::new();
        s.encode_journal(&mut enc);
        assert_eq!(SimStats::decode_journal(&enc).expect("decodes"), s);
    }

    #[test]
    fn every_declared_stat_roundtrips_through_the_codec() {
        // Set each declared value to a distinct number through the setter,
        // so a dropped, swapped or misnamed member cannot round-trip.
        let mut s = SimStats::default();
        let mut expected = Vec::new();
        SimStats::default().visit(|name, kind| {
            let next = 1 + 5 * expected.len() as u64;
            let value = match kind {
                StatValue::Count(_) => StatValue::Count(next),
                StatValue::PerClass(_) => StatValue::PerClass([0, 1, 2, 3, 4].map(|i| next + i)),
            };
            assert!(s.set(name, value), "setter rejects {name}");
            expected.push((name, value));
        });
        let mut enc = String::new();
        s.encode_journal(&mut enc);
        let mut decoded = Vec::new();
        SimStats::decode_journal(&enc)
            .expect("decodes")
            .visit(|name, value| decoded.push((name, value)));
        assert_eq!(decoded, expected);
    }

    #[test]
    fn journal_roundtrips_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let hash = 0x8309_82b6_cdc1_db18;
        {
            let mut j = JobJournal::open(&path, hash).expect("create");
            j.record("a under SHM", &stats(1)).expect("append");
            j.record("b under SGX", &stats(2)).expect("append");
            assert_eq!(j.len(), 2);
        }
        let j = JobJournal::open(&path, hash).expect("reopen");
        assert_eq!(j.len(), 2);
        assert_eq!(j.get::<SimStats>("a under SHM"), Some(stats(1)));
        assert_eq!(j.get::<SimStats>("b under SGX"), Some(stats(2)));
        assert!(j.contains("b under SGX"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let path = tmp("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(JobJournal::open(&path, 1).expect("create"));
        match JobJournal::open(&path, 2) {
            Err(RecoveryError::ConfigMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 2);
                assert_eq!(found, 1);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_earlier_corruption_is_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JobJournal::open(&path, 9).expect("create");
            j.record("done", &stats(1)).expect("append");
        }
        // Simulate a crash mid-append: a torn, newline-less final record.
        let mut doc = std::fs::read_to_string(&path).expect("read");
        doc.push_str("{\"type\":\"job\",\"label\":\"half");
        std::fs::write(&path, &doc).expect("write torn");
        let j = JobJournal::open(&path, 9).expect("torn tail tolerated");
        assert_eq!(j.len(), 1);
        assert!(j.contains("done"));
        drop(j);

        // The same torn bytes *before* a valid line are real corruption.
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .expect("read")
            .lines()
            .map(str::to_string)
            .collect();
        let last = lines.len() - 1;
        lines.swap(1, last);
        std::fs::write(&path, lines.join("\n") + "\n").expect("write corrupt");
        assert!(matches!(
            JobJournal::open(&path, 9),
            Err(RecoveryError::Corrupt { line: 2, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn re_resolve_is_last_line_wins() {
        let path = tmp("rewrite");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JobJournal::open(&path, 7).expect("create");
            j.record_with_worker("job-3", Some("liar"), &stats(1))
                .expect("resolve");
            // Quarantine invalidation re-runs the job and resolves again.
            j.record_with_worker("job-3", Some("honest"), &stats(2))
                .expect("re-resolve");
            assert_eq!(j.get::<SimStats>("job-3"), Some(stats(2)));
        }
        let j = JobJournal::open(&path, 7).expect("reopen");
        assert_eq!(j.len(), 1);
        assert_eq!(j.get::<SimStats>("job-3"), Some(stats(2)));
        assert_eq!(j.worker_of("job-3"), Some("honest"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn worker_attribution_roundtrips_and_stays_optional() {
        let path = tmp("worker-attr");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = JobJournal::open(&path, 5).expect("create");
            j.record("local job", &stats(1)).expect("append");
            j.record_with_worker("remote \"job\"", Some("node-a:2"), &stats(2))
                .expect("append");
            assert_eq!(j.worker_of("local job"), None);
            assert_eq!(j.worker_of("remote \"job\""), Some("node-a:2"));
        }
        // Attribution survives reopen and never disturbs result lookup.
        let j = JobJournal::open(&path, 5).expect("reopen");
        assert_eq!(j.len(), 2);
        assert_eq!(j.get::<SimStats>("local job"), Some(stats(1)));
        assert_eq!(j.get::<SimStats>("remote \"job\""), Some(stats(2)));
        assert_eq!(j.worker_of("local job"), None);
        assert_eq!(j.worker_of("remote \"job\""), Some("node-a:2"));
        let _ = std::fs::remove_file(&path);
    }
}
