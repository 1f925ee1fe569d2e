//! Distributed suite sweeps: the bench-side wiring of `sim-dist`.
//!
//! `sim-dist` moves opaque `(label, payload)` strings; this module owns
//! the payload encoding.  A [`SimJob`] names a benchmark profile, its
//! (scaled) event count, its trace seed and a design point — everything a
//! worker on another host needs to reproduce the exact simulation the
//! local pool would have run.  Results travel back as the same JSON
//! encoding the crash-consistency journal uses, so distributed results
//! are byte-identical to local ones and land in the same journals.
//!
//! The coordinator/worker hello exchanges [`dist_config_hash`], a digest
//! of the protocol version, the benchmark suite, the design-point list
//! and the GPU geometry — deliberately *scale-independent* (per-job event
//! counts ride in the payload), so one running worker fleet serves sweeps
//! at any `--scale`.

use std::collections::BTreeMap;
use std::path::Path;

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm_recovery::{
    config_hash, CkptOutcome, CoordinatorCheckpoint, JobJournal, JournalCodec, RecoveryError,
};
use shm_workloads::BenchmarkProfile;
use sim_dist::protocol::PROTOCOL_VERSION;
use sim_dist::{
    run_worker, Coordinator, DistError, DistEvent, DistJob, DistOptions, DistReport, JobTiming,
    WorkerOptions, WorkerStats, WorkerSummary, DIST_WORKERS_ENV,
};
use sim_exec::{effective_jobs, CancelToken, JobPanic, LabelledPanic, SweepError};

use crate::{scaled_suite, suite_pairs, trace_seed, BenchRow, JournaledSuite};

/// One simulation job in transportable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimJob {
    /// Benchmark profile name (must exist in the worker's suite).
    pub bench: String,
    /// Scaled event count the coordinator resolved for this sweep.
    pub events_per_kernel: u64,
    /// Trace seed (normally `trace_seed(bench)`, but `shm sweep` can pin
    /// its own).
    pub seed: u64,
    /// Design point name (must exist in `DesignPoint::ALL`).
    pub design: String,
}

impl SimJob {
    /// Wire encoding.  Benchmark and design names are static identifiers
    /// (no quotes or backslashes), so plain JSON formatting is exact.
    pub fn encode(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"events\":{},\"seed\":{},\"design\":\"{}\"}}",
            self.bench, self.events_per_kernel, self.seed, self.design
        )
    }

    /// Parses [`SimJob::encode`] output.
    pub fn decode(payload: &str) -> Option<Self> {
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\":");
            let rest = &payload[payload.find(&pat)? + pat.len()..];
            if let Some(stripped) = rest.strip_prefix('"') {
                Some(&stripped[..stripped.find('"')?])
            } else {
                let end = rest
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(rest.len());
                Some(&rest[..end])
            }
        };
        Some(SimJob {
            bench: field("bench")?.to_string(),
            events_per_kernel: field("events")?.parse().ok()?,
            seed: field("seed")?.parse().ok()?,
            design: field("design")?.parse().ok()?,
        })
    }

    /// Runs the simulation this job describes, exactly as the local pool
    /// would (same config, same trace generation, same seed).
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark or design name — on a worker that
    /// panic is captured and reported back as the job's failure.
    pub fn run(&self) -> SimStats {
        let mut profile = BenchmarkProfile::by_name(&self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark '{}' in dist job", self.bench));
        profile.events_per_kernel = self.events_per_kernel;
        let design = DesignPoint::from_name(&self.design)
            .unwrap_or_else(|| panic!("unknown design '{}' in dist job", self.design));
        let cfg = GpuConfig::default();
        let trace = profile.generate(self.seed);
        Simulator::new(&cfg, design).run(&trace)
    }
}

/// The job handler a sweep worker runs: decode, simulate, encode.
/// Panics (undecodable payloads, unknown names, simulator bugs) are
/// captured by the worker loop and surface as labelled job failures.
pub fn dist_worker_handler(label: &str, payload: &str) -> String {
    let job = SimJob::decode(payload)
        .unwrap_or_else(|| panic!("undecodable dist job payload for '{label}'"));
    let stats = job.run();
    let mut out = String::new();
    stats.encode_journal(&mut out);
    out
}

/// Config hash for the coordinator/worker hello: protocol version, suite
/// composition, design list and GPU geometry.  Scale-independent — event
/// counts travel per-job — so one worker fleet serves any `--scale`.
pub fn dist_config_hash() -> u64 {
    let cfg = GpuConfig::default();
    let mut parts: Vec<String> = vec![format!("dist-protocol:{PROTOCOL_VERSION}")];
    parts.extend(
        BenchmarkProfile::suite()
            .iter()
            .map(|p| format!("bench:{}", p.name)),
    );
    parts.extend(
        DesignPoint::ALL
            .iter()
            .map(|d| format!("design:{}", d.name())),
    );
    parts.push(format!(
        "geometry:{}sm:{}part:{}banks:{}B-l2:{}B-interleave",
        cfg.num_sms,
        cfg.num_partitions,
        cfg.l2_banks_per_partition,
        cfg.l2_bank_bytes,
        cfg.interleave_bytes
    ));
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    config_hash(&refs)
}

/// Runs a worker process serving [`dist_worker_handler`] until the
/// coordinator shuts the sweep down (the `shm worker --connect` loop).
///
/// # Errors
///
/// [`DistError`] when the coordinator is unreachable, rejects the hello,
/// or the connection cannot be re-established within the backoff budget.
pub fn serve_worker(addr: &str, opts: WorkerOptions) -> Result<WorkerSummary, DistError> {
    run_worker(addr, dist_config_hash(), opts, dist_worker_handler)
}

/// How a `--dist` sweep is set up.
#[derive(Clone, Debug)]
pub struct DistSweepConfig {
    /// Address the coordinator binds (port 0 = OS-assigned, loopback
    /// clusters read it back).
    pub bind: String,
    /// In-process loopback workers to spawn for the duration of the sweep
    /// (from `SHM_DIST_WORKERS`); 0 means external workers only.
    pub self_workers: usize,
    /// Cluster tunables.
    pub opts: DistOptions,
}

impl DistSweepConfig {
    /// A config binding `bind`, with `SHM_DIST_WORKERS` self workers and
    /// cluster tunables (heartbeat miss window) from the environment.
    pub fn from_env(bind: &str) -> Self {
        Self {
            bind: bind.to_string(),
            self_workers: self_workers_from_env(),
            opts: DistOptions::from_env(),
        }
    }
}

/// Parses `SHM_DIST_WORKERS`: unset or `0` means no self-spawned workers;
/// garbage warns and means 0 (mirrors the `SHM_JOBS` policy).
pub fn self_workers_from_env() -> usize {
    match std::env::var(DIST_WORKERS_ENV) {
        Err(_) => 0,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "warning: ignoring {DIST_WORKERS_ENV}={raw:?} (expected a \
                     non-negative integer); spawning no loopback workers"
                );
                0
            }
        },
    }
}

/// Per-sweep cluster accounting, surfaced in the flight recorder and on
/// stderr after a `--dist` run.
#[derive(Clone, Debug, Default)]
pub struct DistSummary {
    /// Per-worker stats in connection order (empty in degraded mode).
    pub workers: Vec<WorkerStats>,
    /// Jobs re-queued from dead workers.
    pub reassignments: u64,
    /// True when no worker was reachable and the sweep fell back to the
    /// local executor.
    pub degraded: bool,
    /// Distributed-trace id the coordinator minted (0 when degraded).
    pub trace_id: u64,
    /// Per-job observed timings, submission order (empty when degraded).
    pub timings: Vec<JobTiming>,
}

/// Why a distributed sweep failed.
#[derive(Debug)]
pub enum DistSweepError {
    /// Cluster-level failure (bind error, protocol violation, …).
    Cluster(DistError),
    /// One or more jobs failed on workers (labels attached).
    Sweep(SweepError),
    /// Journal trouble (journaled runs only).
    Recovery(RecoveryError),
    /// Cancelled before every job resolved (non-journaled runs only —
    /// journaled runs report interruption via [`JournaledSuite`]).
    Interrupted,
}

impl core::fmt::Display for DistSweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistSweepError::Cluster(e) => write!(f, "distributed sweep failed: {e}"),
            DistSweepError::Sweep(e) => write!(f, "{e}"),
            DistSweepError::Recovery(e) => write!(f, "{e}"),
            DistSweepError::Interrupted => write!(f, "distributed sweep interrupted"),
        }
    }
}

impl std::error::Error for DistSweepError {}

impl From<SweepError> for DistSweepError {
    fn from(e: SweepError) -> Self {
        DistSweepError::Sweep(e)
    }
}

impl From<RecoveryError> for DistSweepError {
    fn from(e: RecoveryError) -> Self {
        DistSweepError::Recovery(e)
    }
}

/// Runs `jobs` on a cluster: binds the coordinator, spawns any loopback
/// self-workers, runs to completion, joins the self-workers.
///
/// # Errors
///
/// [`DistError::NoWorkers`] when nobody connected (callers degrade to
/// local execution), or any cluster-level failure.
pub fn run_dist_jobs<F>(
    jobs: Vec<DistJob>,
    cfg: &DistSweepConfig,
    token: &CancelToken,
    mut on_complete: F,
) -> Result<DistReport, DistError>
where
    F: FnMut(usize, &str, &sim_exec::JobResult<String>),
{
    run_dist_jobs_events(jobs, cfg, token, |ev| {
        if let DistEvent::Resolved {
            index,
            worker,
            outcome,
        } = ev
        {
            on_complete(*index, worker, outcome);
        }
    })
}

/// [`run_dist_jobs`] with the full coordinator event stream (dispatches,
/// resolutions, worker losses, quarantines) instead of just completions.
/// The checkpointed sweep and the chaos campaign build on this.
///
/// # Errors
///
/// Same contract as [`run_dist_jobs`].
pub fn run_dist_jobs_events<F>(
    jobs: Vec<DistJob>,
    cfg: &DistSweepConfig,
    token: &CancelToken,
    on_event: F,
) -> Result<DistReport, DistError>
where
    F: FnMut(&DistEvent),
{
    let hash = dist_config_hash();
    let coord = Coordinator::bind(&cfg.bind, hash, cfg.opts.clone())?;
    let addr = coord.local_addr().to_string();

    let mut self_workers = Vec::new();
    // Split the machine's parallelism across the loopback workers so a
    // self-hosted cluster does not oversubscribe the cores.
    if let Some(per_worker) = effective_jobs(None).checked_div(cfg.self_workers) {
        let per_worker = per_worker.max(1);
        for i in 0..cfg.self_workers {
            let addr = addr.clone();
            let opts = WorkerOptions {
                worker_id: format!("local-{i}"),
                jobs: Some(per_worker),
                ..WorkerOptions::from_env()
            };
            self_workers.push(std::thread::spawn(move || {
                run_worker(&addr, hash, opts, dist_worker_handler)
            }));
        }
    }

    let result = coord.run_with_events(jobs, token, on_event);
    for h in self_workers {
        let _ = h.join();
    }
    result
}

pub(crate) fn suite_dist_jobs(
    designs: &[DesignPoint],
    scale: f64,
) -> (
    Vec<BenchmarkProfile>,
    Vec<(usize, DesignPoint)>,
    Vec<DistJob>,
) {
    let profiles = scaled_suite(scale);
    let (_, pairs) = suite_pairs(designs, &profiles);
    let jobs = pairs
        .iter()
        .map(|&(p, d)| DistJob {
            label: format!("{} under {}", profiles[p].name, d.name()),
            payload: SimJob {
                bench: profiles[p].name.to_string(),
                events_per_kernel: profiles[p].events_per_kernel,
                seed: trace_seed(profiles[p].name),
                design: d.name().to_string(),
            }
            .encode(),
        })
        .collect();
    (profiles, pairs, jobs)
}

pub(crate) fn assemble_rows(
    profiles: &[BenchmarkProfile],
    pairs: &[(usize, DesignPoint)],
    stats: Vec<SimStats>,
) -> Vec<BenchRow> {
    let mut rows: Vec<BenchRow> = profiles
        .iter()
        .map(|p| BenchRow {
            name: p.name.to_string(),
            stats: BTreeMap::new(),
        })
        .collect();
    for (&(p, d), s) in pairs.iter().zip(stats) {
        rows[p].stats.insert(d.name(), s);
    }
    rows
}

fn decode_or_fail(label: &str, index: usize, payload: &str) -> Result<SimStats, LabelledPanic> {
    SimStats::decode_journal(payload).ok_or_else(|| LabelledPanic {
        label: label.to_string(),
        panic: JobPanic {
            index,
            label: Some(label.to_string()),
            message: "worker returned an undecodable result payload".into(),
        },
    })
}

/// The distributed analogue of [`crate::try_run_suite_jobs`]: the full
/// `(benchmark × design)` cross product on a worker cluster, results
/// merged in submission order (byte-identical to `--jobs 1`).
///
/// When no worker is reachable the sweep degrades to the local executor
/// with a stderr warning ([`DistSummary::degraded`]).
///
/// # Errors
///
/// [`DistSweepError`] on cluster failures, labelled job failures, or
/// cancellation mid-sweep.
pub fn try_run_suite_dist(
    designs: &[DesignPoint],
    scale: f64,
    cfg: &DistSweepConfig,
) -> Result<(Vec<BenchRow>, DistSummary), DistSweepError> {
    let (profiles, pairs, jobs) = suite_dist_jobs(designs, scale);
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let token = CancelToken::new();

    match run_dist_jobs(jobs, cfg, &token, |_, _, _| {}) {
        Ok(report) => {
            let summary = DistSummary {
                workers: report.workers,
                reassignments: report.reassignments,
                degraded: false,
                trace_id: report.trace_id,
                timings: report.timings,
            };
            let mut stats = Vec::with_capacity(pairs.len());
            let mut failed = Vec::new();
            for (i, outcome) in report.results.into_iter().enumerate() {
                match outcome {
                    None => return Err(DistSweepError::Interrupted),
                    Some(Ok(payload)) => match decode_or_fail(&labels[i], i, &payload) {
                        Ok(s) => stats.push(s),
                        Err(lp) => failed.push(lp),
                    },
                    Some(Err(p)) => failed.push(LabelledPanic {
                        label: labels[i].clone(),
                        panic: p,
                    }),
                }
            }
            if !failed.is_empty() {
                return Err(SweepError { failed }.into());
            }
            Ok((assemble_rows(&profiles, &pairs, stats), summary))
        }
        Err(DistError::NoWorkers) => {
            eprintln!(
                "warning: no distributed worker reachable; running the sweep \
                 on the local executor"
            );
            let rows =
                crate::try_run_suite_jobs(designs, scale, None).map_err(DistSweepError::Sweep)?;
            Ok((
                rows,
                DistSummary {
                    degraded: true,
                    ..DistSummary::default()
                },
            ))
        }
        Err(e) => Err(DistSweepError::Cluster(e)),
    }
}

/// The distributed analogue of [`crate::try_run_suite_journaled`]: jobs
/// already journaled are skipped, missing jobs run on the cluster, and
/// each completion is appended to the journal *with the producing
/// worker's identity*.  The journal hash matches the local path's, so a
/// sweep may be started locally, resumed distributed, and vice versa.
///
/// # Errors
///
/// [`DistSweepError`] on journal, cluster, or job failures.  An
/// interrupted sweep is *not* an error: rows come back `None` with
/// everything completed so far journaled, like the local path.
pub fn try_run_suite_dist_journaled(
    figure: &str,
    designs: &[DesignPoint],
    scale: f64,
    cfg: &DistSweepConfig,
    journal_dir: &Path,
    crash_after_jobs: Option<usize>,
) -> Result<(JournaledSuite, DistSummary), DistSweepError> {
    let (profiles, pairs, all_jobs) = suite_dist_jobs(designs, scale);

    // Same hash recipe as the local journaled path, so --dist composes
    // with --resume in either direction.
    let mut parts: Vec<String> = vec![figure.to_string()];
    parts.extend(
        profiles
            .iter()
            .map(|p| format!("{}:{}", p.name, p.events_per_kernel)),
    );
    parts.extend(pairs.iter().map(|&(_, d)| d.name().to_string()));
    let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();

    std::fs::create_dir_all(journal_dir).map_err(RecoveryError::Io)?;
    let journal_path = journal_dir.join(format!("{figure}.jsonl"));
    let mut journal =
        JobJournal::open(&journal_path, config_hash(&part_refs)).map_err(DistSweepError::from)?;

    let mut results: Vec<Option<SimStats>> = Vec::with_capacity(pairs.len());
    let mut missing: Vec<usize> = Vec::new();
    let mut reused = 0usize;
    for (i, job) in all_jobs.iter().enumerate() {
        match journal.get::<SimStats>(&job.label) {
            Some(s) => {
                reused += 1;
                results.push(Some(s));
            }
            None => {
                missing.push(i);
                results.push(None);
            }
        }
    }

    let mut summary = DistSummary::default();
    let mut executed = 0usize;
    let mut failed: Vec<LabelledPanic> = Vec::new();
    if !missing.is_empty() {
        let jobs: Vec<DistJob> = missing.iter().map(|&i| all_jobs[i].clone()).collect();
        let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
        let token = CancelToken::new();
        let mut appended = 0usize;
        let mut io_error: Option<std::io::Error> = None;
        let mut decoded: Vec<Option<SimStats>> = (0..missing.len()).map(|_| None).collect();

        let run = run_dist_jobs(jobs, cfg, &token, |j, worker, outcome| {
            if let Ok(payload) = outcome {
                match decode_or_fail(&labels[j], missing[j], payload) {
                    Ok(stats) => {
                        if io_error.is_none() {
                            match journal.record_with_worker(&labels[j], Some(worker), &stats) {
                                Ok(()) => {
                                    appended += 1;
                                    if crash_after_jobs == Some(appended) {
                                        token.cancel();
                                    }
                                }
                                Err(e) => {
                                    io_error = Some(e);
                                    token.cancel();
                                }
                            }
                        }
                        decoded[j] = Some(stats);
                    }
                    Err(lp) => failed.push(lp),
                }
            }
        });

        match run {
            Ok(report) => {
                if let Some(e) = io_error {
                    return Err(DistSweepError::Recovery(RecoveryError::Io(e)));
                }
                summary.workers = report.workers;
                summary.reassignments = report.reassignments;
                summary.trace_id = report.trace_id;
                summary.timings = report.timings;
                for (j, outcome) in report.results.iter().enumerate() {
                    match outcome {
                        None => {} // cancelled before dispatch: stays missing
                        Some(Ok(_)) => {
                            if let Some(stats) = decoded[j].take() {
                                executed += 1;
                                results[missing[j]] = Some(stats);
                            }
                        }
                        Some(Err(p)) => failed.push(LabelledPanic {
                            label: labels[j].clone(),
                            panic: p.clone(),
                        }),
                    }
                }
            }
            Err(DistError::NoWorkers) => {
                eprintln!(
                    "warning: no distributed worker reachable; resuming the \
                     journaled sweep on the local executor"
                );
                drop(journal);
                let suite = crate::try_run_suite_journaled(
                    figure,
                    designs,
                    scale,
                    None,
                    journal_dir,
                    crash_after_jobs,
                )?;
                return Ok((
                    suite,
                    DistSummary {
                        degraded: true,
                        ..DistSummary::default()
                    },
                ));
            }
            Err(e) => return Err(DistSweepError::Cluster(e)),
        }
    }
    if !failed.is_empty() {
        return Err(SweepError { failed }.into());
    }

    let complete: Option<Vec<SimStats>> = results.into_iter().collect();
    let rows = complete.map(|stats| assemble_rows(&profiles, &pairs, stats));
    Ok((
        JournaledSuite {
            rows,
            reused,
            executed,
            completed_labels: journal
                .completed_labels()
                .into_iter()
                .map(str::to_string)
                .collect(),
            journal_path,
        },
        summary,
    ))
}

/// What a checkpoint-backed distributed sweep produced.
#[derive(Clone, Debug)]
pub struct CheckpointedSuite {
    /// Merged rows, `None` when the coordinator "crashed" (was cancelled)
    /// before every job resolved — resume by calling again with the same
    /// checkpoint path.
    pub rows: Option<Vec<BenchRow>>,
    /// Jobs replayed from the checkpoint instead of re-run.
    pub reused: usize,
    /// Jobs resolved by the cluster in this invocation.
    pub executed: usize,
}

/// The crash-resumable distributed sweep: every dispatch, resolution and
/// quarantine is appended to a [`CoordinatorCheckpoint`] as it happens,
/// group-committed every `flush_every` records.  A coordinator killed
/// mid-sweep (simulated here by `crash_after_resolves` tripping the
/// cancel token) restarts with the same checkpoint path, replays resolved
/// jobs byte-for-byte, re-dispatches only the rest, and renders merged
/// tables identical to an uninterrupted run.
///
/// # Errors
///
/// [`DistSweepError`] on checkpoint, cluster, or job failures.  An
/// interrupted sweep is *not* an error: [`CheckpointedSuite::rows`] comes
/// back `None` with progress durably checkpointed.
pub fn try_run_suite_dist_checkpointed(
    designs: &[DesignPoint],
    scale: f64,
    cfg: &DistSweepConfig,
    ckpt_path: &Path,
    flush_every: usize,
    crash_after_resolves: Option<usize>,
) -> Result<(CheckpointedSuite, DistSummary), DistSweepError> {
    let (profiles, pairs, all_jobs) = suite_dist_jobs(designs, scale);

    // The checkpoint guard hashes the exact job list (labels + payloads),
    // so indexes in the file can never be replayed against a different
    // sweep shape or scale.
    let mut parts: Vec<String> = vec!["dist-checkpoint".to_string()];
    for job in &all_jobs {
        parts.push(format!("{}={}", job.label, job.payload));
    }
    let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    let mut ckpt = CoordinatorCheckpoint::open(ckpt_path, config_hash(&part_refs), flush_every)
        .map_err(DistSweepError::from)?;

    let mut results: Vec<Option<JobPanicOrStats>> = Vec::with_capacity(all_jobs.len());
    let mut missing: Vec<usize> = Vec::new();
    let mut reused = 0usize;
    let mut failed: Vec<LabelledPanic> = Vec::new();
    for (i, job) in all_jobs.iter().enumerate() {
        match ckpt.resolved().get(&(i as u64)) {
            Some(CkptOutcome::Ok { payload, .. }) => {
                match decode_or_fail(&job.label, i, payload) {
                    Ok(s) => results.push(Some(JobPanicOrStats::Stats(Box::new(s)))),
                    Err(lp) => {
                        failed.push(lp);
                        results.push(None);
                    }
                }
                reused += 1;
            }
            Some(CkptOutcome::Failed { label }) => {
                results.push(Some(JobPanicOrStats::Panic(label.clone())));
                reused += 1;
            }
            None => {
                missing.push(i);
                results.push(None);
            }
        }
    }

    let mut summary = DistSummary::default();
    let mut executed = 0usize;
    let mut interrupted = false;
    if !missing.is_empty() {
        let jobs: Vec<DistJob> = missing.iter().map(|&i| all_jobs[i].clone()).collect();
        let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
        let token = CancelToken::new();
        let mut resolves = 0usize;
        let mut io_error: Option<std::io::Error> = None;

        let run = run_dist_jobs_events(jobs, cfg, &token, |ev| {
            if io_error.is_some() {
                return;
            }
            let io = match ev {
                DistEvent::Dispatched { index, worker, .. } => {
                    ckpt.record_assign(missing[*index] as u64, worker)
                }
                DistEvent::Resolved { index, outcome, .. } => {
                    let rec = match outcome {
                        Ok(payload) => CkptOutcome::Ok {
                            payload: payload.clone(),
                            run_ns: 0,
                        },
                        Err(p) => CkptOutcome::Failed {
                            label: p.message.clone(),
                        },
                    };
                    let r = ckpt.record_resolve(missing[*index] as u64, &rec);
                    resolves += 1;
                    if crash_after_resolves == Some(resolves) {
                        // Simulated coordinator death: force the durable
                        // state down and stop taking results.
                        let _ = ckpt.flush();
                        token.cancel();
                    }
                    r
                }
                DistEvent::Quarantined { worker, reason, .. } => {
                    ckpt.record_quarantine(worker, reason)
                }
                DistEvent::WorkerLost { .. } => Ok(()),
            };
            if let Err(e) = io {
                io_error = Some(e);
                token.cancel();
            }
        });

        match run {
            Ok(report) => {
                if let Some(e) = io_error {
                    return Err(DistSweepError::Recovery(RecoveryError::Io(e)));
                }
                summary.workers = report.workers;
                summary.reassignments = report.reassignments;
                summary.trace_id = report.trace_id;
                summary.timings = report.timings;
                interrupted = report.interrupted;
                for (j, outcome) in report.results.into_iter().enumerate() {
                    match outcome {
                        None => {} // cancelled before dispatch: stays missing
                        Some(Ok(payload)) => {
                            match decode_or_fail(&labels[j], missing[j], &payload) {
                                Ok(s) => {
                                    executed += 1;
                                    results[missing[j]] = Some(JobPanicOrStats::Stats(Box::new(s)));
                                }
                                Err(lp) => failed.push(lp),
                            }
                        }
                        Some(Err(p)) => {
                            executed += 1;
                            results[missing[j]] = Some(JobPanicOrStats::Panic(p.message.clone()));
                        }
                    }
                }
            }
            Err(e) => return Err(DistSweepError::Cluster(e)),
        }
    }
    ckpt.flush().map_err(RecoveryError::Io)?;

    // Checkpointed failures (from this run or a replayed one) surface as
    // labelled sweep errors once the sweep is otherwise complete.
    for (i, r) in results.iter().enumerate() {
        if let Some(JobPanicOrStats::Panic(message)) = r {
            failed.push(LabelledPanic {
                label: all_jobs[i].label.clone(),
                panic: JobPanic {
                    index: i,
                    label: Some(all_jobs[i].label.clone()),
                    message: message.clone(),
                },
            });
        }
    }
    if !failed.is_empty() {
        return Err(SweepError { failed }.into());
    }

    let rows = if interrupted || results.iter().any(Option::is_none) {
        None
    } else {
        let stats: Vec<SimStats> = results
            .into_iter()
            .map(|r| match r {
                Some(JobPanicOrStats::Stats(s)) => *s,
                _ => unreachable!("failures already surfaced"),
            })
            .collect();
        Some(assemble_rows(&profiles, &pairs, stats))
    };
    Ok((
        CheckpointedSuite {
            rows,
            reused,
            executed,
        },
        summary,
    ))
}

/// Internal: a checkpointed job is either stats or a recorded failure.
enum JobPanicOrStats {
    Stats(Box<SimStats>),
    Panic(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_job_round_trips() {
        let job = SimJob {
            bench: "fdtd2d".into(),
            events_per_kernel: 4096,
            seed: trace_seed("fdtd2d"),
            design: "SHM".into(),
        };
        assert_eq!(SimJob::decode(&job.encode()), Some(job));
    }

    #[test]
    fn handler_reproduces_run_one_exactly() {
        let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("in suite");
        profile.events_per_kernel = 4096;
        let local = {
            let cfg = GpuConfig::default();
            let trace = profile.generate(trace_seed("fdtd2d"));
            Simulator::new(&cfg, DesignPoint::Shm).run(&trace)
        };
        let job = SimJob {
            bench: "fdtd2d".into(),
            events_per_kernel: 4096,
            seed: trace_seed("fdtd2d"),
            design: "SHM".into(),
        };
        let wire = dist_worker_handler("fdtd2d under SHM", &job.encode());
        assert_eq!(SimStats::decode_journal(&wire), Some(local));
    }

    #[test]
    fn dist_config_hash_is_stable_across_calls() {
        assert_eq!(dist_config_hash(), dist_config_hash());
    }
}
