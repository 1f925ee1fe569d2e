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

use gpu_types::{SimStats, TrafficBytes};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Journal format version; bump on any schema change.
pub const JOURNAL_VERSION: u32 = 1;

/// FNV-1a hash of an ordered list of config parts (benchmark names, design
/// labels, scale, …) — the guard a journal stores so `--resume` refuses to
/// mix results from different sweep configurations.
pub fn config_hash(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for p in parts {
        for b in p.bytes() {
            eat(b);
        }
        eat(0x1f); // unit separator: ["ab","c"] != ["a","bc"]
    }
    h
}

/// How a job result crosses the journal boundary.  Implementations must
/// round-trip exactly: `decode(encode(x)) == x`, or resumed tables would
/// not be byte-identical.
pub trait JournalCodec: Sized {
    /// Appends the JSON value encoding `self` (no surrounding whitespace).
    fn encode_journal(&self, out: &mut String);
    /// Parses a value previously produced by [`Self::encode_journal`].
    fn decode_journal(payload: &str) -> Option<Self>;
}

/// Extracts `"key":<u64>` from a flat JSON object.
fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key":[a,b,c,d,e]` from a flat JSON object.
fn json_arr5(s: &str, key: &str) -> Option<[u64; 5]> {
    let pat = format!("\"{key}\":[");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let body = &rest[..rest.find(']')?];
    let mut out = [0u64; 5];
    let mut parts = body.split(',');
    for slot in &mut out {
        *slot = parts.next()?.trim().parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

impl JournalCodec for SimStats {
    fn encode_journal(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"cycles\":{},\"instructions\":{},\"accesses\":{},\"l2_hits\":{},\"l2_misses\":{},\
             \"l2_writebacks\":{},\"ctr_hits\":{},\"ctr_misses\":{},\"mac_hits\":{},\
             \"mac_misses\":{},\"bmt_hits\":{},\"bmt_misses\":{},\"victim_hits\":{},",
            self.cycles,
            self.instructions,
            self.accesses,
            self.l2_hits,
            self.l2_misses,
            self.l2_writebacks,
            self.ctr_hits,
            self.ctr_misses,
            self.mac_hits,
            self.mac_misses,
            self.bmt_hits,
            self.bmt_misses,
            self.victim_hits,
        );
        for (key, arr) in [("read", &self.traffic.read), ("write", &self.traffic.write)] {
            let _ = write!(out, "\"{key}\":[");
            for (i, v) in arr.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push_str("],");
        }
        let _ = write!(
            out,
            "\"readonly_fast_path\":{},\"chunk_mac_accesses\":{},\"stream_mispredictions\":{},\
             \"readonly_mispredictions\":{},\"lat_sum\":{},\"lat_max\":{},\"dram_requests\":{},\
             \"pool_migrations\":{},\"pool_spills\":{},\"pool_cpu_accesses\":{},\
             \"pool_capacity_events\":{},\"link_bytes_to_gpu\":{},\"link_bytes_to_cpu\":{}}}",
            self.readonly_fast_path,
            self.chunk_mac_accesses,
            self.stream_mispredictions,
            self.readonly_mispredictions,
            self.lat_sum,
            self.lat_max,
            self.dram_requests,
            self.pool_migrations,
            self.pool_spills,
            self.pool_cpu_accesses,
            self.pool_capacity_events,
            self.link_bytes_to_gpu,
            self.link_bytes_to_cpu,
        );
    }

    fn decode_journal(payload: &str) -> Option<Self> {
        Some(SimStats {
            cycles: json_u64(payload, "cycles")?,
            instructions: json_u64(payload, "instructions")?,
            accesses: json_u64(payload, "accesses")?,
            l2_hits: json_u64(payload, "l2_hits")?,
            l2_misses: json_u64(payload, "l2_misses")?,
            l2_writebacks: json_u64(payload, "l2_writebacks")?,
            ctr_hits: json_u64(payload, "ctr_hits")?,
            ctr_misses: json_u64(payload, "ctr_misses")?,
            mac_hits: json_u64(payload, "mac_hits")?,
            mac_misses: json_u64(payload, "mac_misses")?,
            bmt_hits: json_u64(payload, "bmt_hits")?,
            bmt_misses: json_u64(payload, "bmt_misses")?,
            victim_hits: json_u64(payload, "victim_hits")?,
            traffic: TrafficBytes {
                read: json_arr5(payload, "read")?,
                write: json_arr5(payload, "write")?,
            },
            readonly_fast_path: json_u64(payload, "readonly_fast_path")?,
            chunk_mac_accesses: json_u64(payload, "chunk_mac_accesses")?,
            stream_mispredictions: json_u64(payload, "stream_mispredictions")?,
            readonly_mispredictions: json_u64(payload, "readonly_mispredictions")?,
            lat_sum: json_u64(payload, "lat_sum")?,
            lat_max: json_u64(payload, "lat_max")?,
            dram_requests: json_u64(payload, "dram_requests")?,
            pool_migrations: json_u64(payload, "pool_migrations")?,
            pool_spills: json_u64(payload, "pool_spills")?,
            pool_cpu_accesses: json_u64(payload, "pool_cpu_accesses")?,
            pool_capacity_events: json_u64(payload, "pool_capacity_events")?,
            link_bytes_to_gpu: json_u64(payload, "link_bytes_to_gpu")?,
            link_bytes_to_cpu: json_u64(payload, "link_bytes_to_cpu")?,
        })
    }
}

impl JournalCodec for String {
    fn encode_journal(&self, out: &mut String) {
        out.push('"');
        escape_into(self, out);
        out.push('"');
    }

    fn decode_journal(payload: &str) -> Option<Self> {
        let inner = payload.strip_prefix('"')?.strip_suffix('"')?;
        unescape(inner)
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
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
        escape_into(label, &mut line);
        line.push('"');
        if let Some(w) = worker {
            line.push_str(",\"worker\":\"");
            escape_into(w, &mut line);
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
    let version = json_u64(line, "version")? as u32;
    let pat = "\"config_hash\":\"";
    let rest = &line[line.find(pat)? + pat.len()..];
    let hex = &rest[..rest.find('"')?];
    Some((version, u64::from_str_radix(hex, 16).ok()?))
}

/// Finds the closing quote of an escaped string starting at `s[0]`.
fn escaped_string_end(s: &str) -> Option<usize> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match (escaped, c) {
            (true, _) => escaped = false,
            (false, '\\') => escaped = true,
            (false, '"') => return Some(i),
            _ => {}
        }
    }
    None
}

/// Parses a `job` line into `(label, worker, payload)`.  The `worker`
/// field is optional — local sweeps never write it — so journals from
/// before the distributed backend still parse.
fn parse_job(line: &str) -> Option<(String, Option<String>, String)> {
    let rest = line.strip_prefix("{\"type\":\"job\",\"label\":\"")?;
    if !line.ends_with('}') {
        return None;
    }
    let end = escaped_string_end(rest)?;
    let label = unescape(&rest[..end])?;
    let mut rest = rest[end..].strip_prefix('"')?;
    let mut worker = None;
    if let Some(w) = rest.strip_prefix(",\"worker\":\"") {
        let wend = escaped_string_end(w)?;
        worker = Some(unescape(&w[..wend])?);
        rest = w[wend..].strip_prefix('"')?;
    }
    let payload = rest.strip_prefix(",\"payload\":")?;
    let payload = payload.strip_suffix('}')?;
    Some((label, worker, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn journal_roundtrips_across_reopen() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let hash = config_hash(&["suite", "0.25"]);
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
            j.record("done", &"ok".to_string()).expect("append");
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

    #[test]
    fn config_hash_separates_parts() {
        assert_ne!(config_hash(&["ab", "c"]), config_hash(&["a", "bc"]));
        assert_ne!(config_hash(&["a"]), config_hash(&["a", ""]));
        assert_eq!(config_hash(&["x", "y"]), config_hash(&["x", "y"]));
    }
}
