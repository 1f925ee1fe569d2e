//! One runner for every (benchmark × design) sweep.
//!
//! A [`Sweep`] is a list of [`SimJob`]s, a [`Backend`] that runs them and
//! an optional [`Journal`] that makes the sweep resumable.  The `repro`
//! figures, `shm sweep` and the chaos campaign all go through
//! [`Sweep::run`], so the journal bookkeeping — skip journaled jobs,
//! append each completion as it lands, stop after exactly
//! `crash_after_jobs` appends or on the first I/O error — the fallback from
//! an empty cluster to the local executor, and the submission-order
//! reassembly exist once and serve both backends.
//!
//! Results come back in submission order, and a journaled result decodes
//! to the exact stats it recorded, so every backend and every resume
//! renders the bytes a serial run does.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use gpu_mem_sim::DesignPoint;
use gpu_types::SimStats;
use shm_recovery::{JobJournal, JournalCodec, RecoveryError};
use sim_dist::{run_worker, Coordinator, DistError, DistJob, JobTiming, WorkerOptions};
use sim_exec::{
    effective_jobs, CancelToken, Executor, JobPanic, JobResult, LabelledPanic, SweepError,
};

use crate::dist::{dist_config_hash, dist_worker_handler, DistSummary, DistSweepConfig, SimJob};
use crate::{config_hash, scaled_suite, trace_seed, BenchRow};

/// Where a sweep's jobs run.
#[derive(Clone, Debug)]
pub enum Backend {
    /// The in-process executor (`--jobs N`).
    Local(Executor),
    /// A worker cluster; the sweep runs on the local executor instead when
    /// no worker connects.
    Dist(DistSweepConfig),
}

/// A durable log of a sweep's completed jobs (see
/// [`shm_recovery::JobJournal`]): a re-run with the same config hash reuses
/// them instead of simulating again.
#[derive(Clone, Debug)]
pub struct Journal {
    /// The JSONL file; its directory is created when missing.
    pub path: PathBuf,
    /// Guard binding the file to one sweep configuration.
    pub config_hash: u64,
    /// Deterministic kill switch for tests and CI: stop the sweep after
    /// exactly this many appends in this run, as if the process died
    /// there.  Jobs still in flight when it trips are neither journaled
    /// nor returned, whatever the worker count.
    pub crash_after_jobs: Option<usize>,
}

impl Journal {
    /// The journal of one `repro` figure: `dir/<figure>.jsonl`, bound to
    /// the figure name, each benchmark's event count and every job's
    /// design, so a resume with another scale or design list is refused.
    pub fn figure(
        dir: &Path,
        figure: &str,
        jobs: &[SimJob],
        crash_after_jobs: Option<usize>,
    ) -> Self {
        let mut benches: Vec<String> = jobs
            .iter()
            .map(|j| format!("{}:{}", j.bench, j.events_per_kernel))
            .collect();
        benches.dedup();
        let mut parts = vec![figure.to_string()];
        parts.extend(benches);
        parts.extend(jobs.iter().map(|j| j.design.clone()));
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        Journal {
            path: dir.join(format!("{figure}.jsonl")),
            config_hash: config_hash(&refs),
            crash_after_jobs,
        }
    }
}

/// A list of simulation jobs, where to run them, and whether to journal
/// them.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The jobs in submission order.
    pub jobs: Vec<SimJob>,
    /// Where the jobs run.
    pub backend: Backend,
    /// Durable log of completed jobs, when the sweep must be resumable.
    pub journal: Option<Journal>,
}

/// What [`Sweep::run`] produced.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Per-job stats in submission order; `None` for a job the sweep was
    /// cancelled before (everything completed so far is journaled).
    pub stats: Vec<Option<SimStats>>,
    /// Jobs whose results were loaded from the journal.
    pub reused: usize,
    /// Jobs simulated by this run.
    pub executed: usize,
    /// Labels of every job with a result, in submission order.
    pub completed_labels: Vec<String>,
    /// Observed timing of each job this run simulated, by submission index.
    pub timings: Vec<JobTiming>,
    /// Distributed-trace id of this run (the coordinator's on a cluster).
    pub trace_id: u64,
    /// Cluster accounting, for a [`Backend::Dist`] sweep.
    pub cluster: Option<DistSummary>,
}

impl SweepRun {
    /// Every job's stats in submission order, when the sweep completed.
    pub fn complete(&self) -> Option<Vec<SimStats>> {
        self.stats.iter().cloned().collect()
    }
}

/// Why a sweep failed.
#[derive(Debug)]
pub enum SweepFailure {
    /// The journal could not be opened, was written for another
    /// configuration, or an append failed.
    Journal(RecoveryError),
    /// The cluster failed as a whole (bind error, protocol violation, …).
    Cluster(DistError),
    /// One or more jobs failed; each is labelled.
    Jobs(SweepError),
}

impl core::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SweepFailure::Journal(e) => write!(f, "{e}"),
            SweepFailure::Cluster(e) => write!(f, "distributed sweep failed: {e}"),
            SweepFailure::Jobs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepFailure {}

impl From<RecoveryError> for SweepFailure {
    fn from(e: RecoveryError) -> Self {
        SweepFailure::Journal(e)
    }
}

/// The journal bookkeeping both backends share.
struct Log {
    journal: Option<JobJournal>,
    crash_after_jobs: Option<usize>,
    appended: usize,
    io_error: Option<std::io::Error>,
    timings: Vec<JobTiming>,
}

impl Log {
    /// Appends one completion (attributed to `worker` when it came from a
    /// cluster) and trips `token` at the crash switch or on an I/O error.
    /// Returns whether the result stands: once the switch has tripped or an
    /// append failed, nothing more is journaled and late results are
    /// dropped, as if the process had died there.
    fn record(
        &mut self,
        label: &str,
        worker: Option<&str>,
        stats: &SimStats,
        token: &CancelToken,
    ) -> bool {
        let Some(journal) = self.journal.as_mut() else {
            return true;
        };
        if self.io_error.is_some() || self.crash_after_jobs.is_some_and(|n| self.appended >= n) {
            token.cancel();
            return false;
        }
        match journal.record_with_worker(label, worker, stats) {
            Ok(()) => {
                self.appended += 1;
                if self.crash_after_jobs == Some(self.appended) {
                    token.cancel();
                }
                true
            }
            Err(e) => {
                // The journal is gone; finishing more jobs would lose their
                // results anyway, so drain and stop.
                self.io_error = Some(e);
                token.cancel();
                false
            }
        }
    }
}

/// How one job of a run ended: `None` when the sweep was cancelled first.
type Outcome = Option<JobResult<SimStats>>;

fn since_ms(started: Instant) -> u64 {
    started.elapsed().as_millis() as u64
}

impl Sweep {
    fn new(jobs: Vec<SimJob>) -> Self {
        Sweep {
            jobs,
            backend: Backend::Local(Executor::from_env()),
            journal: None,
        }
    }

    /// The figure grid: every benchmark of the suite scaled by `scale`,
    /// under the unprotected baseline first and then each of `designs`.
    pub fn suite(designs: &[DesignPoint], scale: f64) -> Self {
        let mut points = vec![DesignPoint::Unprotected];
        points.extend(
            designs
                .iter()
                .copied()
                .filter(|d| *d != DesignPoint::Unprotected),
        );
        let jobs = scaled_suite(scale)
            .iter()
            .flat_map(|p| {
                points.iter().map(move |d| SimJob {
                    bench: p.name.to_string(),
                    events_per_kernel: p.events_per_kernel,
                    seed: trace_seed(p.name),
                    design: d.name().to_string(),
                })
            })
            .collect();
        Self::new(jobs)
    }

    /// One trace under every design point, in `DesignPoint::ALL` order
    /// (the `shm sweep` grid).
    pub fn all_designs(bench: &str, events_per_kernel: u64, seed: u64) -> Self {
        let jobs = DesignPoint::ALL
            .iter()
            .map(|d| SimJob {
                bench: bench.to_string(),
                events_per_kernel,
                seed,
                design: d.name().to_string(),
            })
            .collect();
        Self::new(jobs)
    }

    /// Groups per-job stats (submission order) into one row per benchmark.
    pub fn rows(&self, stats: Vec<SimStats>) -> Vec<BenchRow> {
        let mut rows: Vec<BenchRow> = Vec::new();
        for (job, s) in self.jobs.iter().zip(stats) {
            let design = DesignPoint::from_name(&job.design)
                .unwrap_or_else(|| panic!("unknown design '{}' in sweep", job.design))
                .name();
            match rows.last_mut().filter(|r| r.name == job.bench) {
                Some(row) => {
                    row.stats.insert(design, s);
                }
                None => rows.push(BenchRow {
                    name: job.bench.clone(),
                    stats: BTreeMap::from([(design, s)]),
                }),
            }
        }
        rows
    }

    /// Runs every job the journal does not already hold and returns all
    /// results in submission order.
    ///
    /// `local(index, job)` simulates a job in this process: on the local
    /// backend, and on a cluster nobody joined.  Cluster workers run
    /// [`SimJob::run`] on the job's payload instead.  A cancelled sweep
    /// (SIGINT/SIGTERM, or the journal's crash switch) is not an error: the
    /// jobs it never ran, and those the crash switch dropped, come back
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`SweepFailure`] on journal trouble, a failed cluster, or failed
    /// jobs.
    pub fn run<F>(&self, local: F) -> Result<SweepRun, SweepFailure>
    where
        F: Fn(usize, &SimJob) -> SimStats + Sync,
    {
        let labels: Vec<String> = self.jobs.iter().map(SimJob::label).collect();
        let journal = match &self.journal {
            Some(j) => {
                if let Some(dir) = j.path.parent() {
                    std::fs::create_dir_all(dir).map_err(RecoveryError::Io)?;
                }
                Some(JobJournal::open(&j.path, j.config_hash)?)
            }
            None => None,
        };
        let mut stats: Vec<Option<SimStats>> = labels
            .iter()
            .map(|l| journal.as_ref().and_then(|j| j.get::<SimStats>(l)))
            .collect();
        let missing: Vec<usize> = (0..stats.len()).filter(|&i| stats[i].is_none()).collect();
        let reused = stats.len() - missing.len();

        let token = CancelToken::new();
        let log = Mutex::new(Log {
            journal,
            crash_after_jobs: self.journal.as_ref().and_then(|j| j.crash_after_jobs),
            appended: 0,
            io_error: None,
            timings: Vec::new(),
        });
        let mut trace_id = shm_telemetry::wall_ms().wrapping_mul(1_000_000) | 1;
        let mut cluster = None;
        let mut outcomes = None;
        match &self.backend {
            // A fully journaled sweep starts no cluster.
            Backend::Dist(cfg) if !missing.is_empty() => {
                match self.run_cluster(cfg, &labels, &missing, &token, &log) {
                    Ok((summary, id, results)) => {
                        cluster = Some(summary);
                        trace_id = id;
                        outcomes = Some(results);
                    }
                    Err(DistError::NoWorkers) => {
                        eprintln!(
                            "warning: no distributed worker reachable at {}; running the \
                             sweep on the local executor",
                            cfg.bind
                        );
                        cluster = Some(DistSummary {
                            degraded: true,
                            ..DistSummary::default()
                        });
                    }
                    Err(e) => return Err(SweepFailure::Cluster(e)),
                }
            }
            _ => {}
        }
        let outcomes = outcomes.unwrap_or_else(|| {
            let exec = match &self.backend {
                Backend::Local(exec) => *exec,
                Backend::Dist(_) => Executor::from_env(),
            };
            let started = Instant::now();
            exec.map_cancellable(&missing, &token, |_, &i| {
                let dispatch_ms = since_ms(started);
                let begun = Instant::now();
                let s = local(i, &self.jobs[i]);
                let run_ns = begun.elapsed().as_nanos() as u64;
                let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
                if !log.record(&labels[i], None, &s, &token) {
                    return None;
                }
                log.timings.push(JobTiming {
                    index: i,
                    worker: "local".to_string(),
                    dispatch_ms,
                    end_ms: since_ms(started),
                    run_ns,
                });
                Some(s)
            })
            .into_iter()
            .map(|outcome| outcome.and_then(Result::transpose))
            .collect()
        });

        let log = log.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = log.io_error {
            return Err(RecoveryError::Io(e).into());
        }
        let mut executed = 0;
        let mut failed = Vec::new();
        for (&i, outcome) in missing.iter().zip(outcomes) {
            match outcome {
                None => {}
                Some(Ok(s)) => {
                    executed += 1;
                    stats[i] = Some(s);
                }
                Some(Err(p)) => failed.push(LabelledPanic {
                    label: labels[i].clone(),
                    panic: JobPanic {
                        index: i,
                        label: Some(labels[i].clone()),
                        message: p.message,
                    },
                }),
            }
        }
        if !failed.is_empty() {
            return Err(SweepFailure::Jobs(SweepError { failed }));
        }
        let mut timings = log.timings;
        timings.sort_by_key(|t| t.index);
        Ok(SweepRun {
            completed_labels: labels
                .into_iter()
                .zip(&stats)
                .filter(|(_, s)| s.is_some())
                .map(|(l, _)| l)
                .collect(),
            stats,
            reused,
            executed,
            timings,
            trace_id,
            cluster,
        })
    }

    /// Runs the `missing` jobs on a cluster: binds the coordinator, spawns
    /// the loopback self-workers, journals each result as it resolves, and
    /// returns the cluster accounting, the trace id, and per-job outcomes
    /// aligned with `missing`.
    fn run_cluster(
        &self,
        cfg: &DistSweepConfig,
        labels: &[String],
        missing: &[usize],
        token: &CancelToken,
        log: &Mutex<Log>,
    ) -> Result<(DistSummary, u64, Vec<Outcome>), DistError> {
        let hash = dist_config_hash();
        let coord = Coordinator::bind(&cfg.bind, hash, cfg.opts.clone())?;
        let addr = coord.local_addr().to_string();
        // Split the machine's parallelism across the loopback workers so a
        // self-hosted cluster does not oversubscribe the cores.
        let per_worker = effective_jobs(None)
            .checked_div(cfg.self_workers)
            .unwrap_or(0)
            .max(1);
        let self_workers: Vec<_> = (0..cfg.self_workers)
            .map(|i| {
                let addr = addr.clone();
                let opts = WorkerOptions {
                    worker_id: format!("local-{i}"),
                    jobs: Some(per_worker),
                    ..WorkerOptions::from_env()
                };
                std::thread::spawn(move || run_worker(&addr, hash, opts, dist_worker_handler))
            })
            .collect();

        let jobs: Vec<DistJob> = missing.iter().map(|&i| self.jobs[i].dist_job()).collect();
        // A job can resolve twice (a quarantine re-runs what the liar
        // delivered); the journal and `decoded` both keep the last result
        // that stands.  `dropped` marks results the crash switch refused.
        let mut decoded: Vec<Option<SimStats>> = vec![None; missing.len()];
        let mut dropped = vec![false; missing.len()];
        let report = coord.run_with(jobs, token, |j, worker, outcome| {
            let Some(s) = outcome
                .as_ref()
                .ok()
                .and_then(|p| SimStats::decode_journal(p))
            else {
                return;
            };
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            if log.record(&labels[missing[j]], Some(worker), &s, token) {
                decoded[j] = Some(s);
            } else {
                dropped[j] = true;
            }
        });
        for h in self_workers {
            let _ = h.join();
        }
        let report = report?;

        let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
        log.timings
            .extend(report.timings.into_iter().map(|t| JobTiming {
                index: missing[t.index],
                ..t
            }));
        let outcomes = report
            .results
            .into_iter()
            .zip(decoded)
            .enumerate()
            .map(|(j, (outcome, stats))| {
                if dropped[j] && stats.is_none() {
                    return None;
                }
                outcome.map(|r| {
                    r.and_then(|_| {
                        stats.ok_or_else(|| JobPanic {
                            index: missing[j],
                            label: Some(labels[missing[j]].clone()),
                            message: "worker returned an undecodable result payload".into(),
                        })
                    })
                })
            })
            .collect();
        let summary = DistSummary {
            workers: report.workers,
            reassignments: report.reassignments,
            degraded: false,
        };
        Ok((summary, report.trace_id, outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("shm-sweep-{}-{name}.jsonl", std::process::id()))
    }

    /// One cheap job per design point (ten) whose "simulation" is a pure
    /// function of the index.
    fn toy(path: &Path, crash_after_jobs: Option<usize>) -> Sweep {
        Sweep {
            backend: Backend::Local(Executor::new(1)),
            journal: Some(Journal {
                path: path.to_path_buf(),
                config_hash: config_hash(&["toy"]),
                crash_after_jobs,
            }),
            ..Sweep::all_designs("toy", 1, 1)
        }
    }

    fn fake(i: usize) -> SimStats {
        SimStats {
            cycles: 100 + i as u64,
            ..SimStats::default()
        }
    }

    #[test]
    fn resumes_without_rerunning_completed_jobs() {
        let path = tmp("resume");
        let _ = std::fs::remove_file(&path);
        let runs = AtomicUsize::new(0);
        let work = |i: usize, _: &SimJob| {
            runs.fetch_add(1, Ordering::SeqCst);
            fake(i)
        };

        // First invocation crashes after 2 completions.
        let crashed = toy(&path, Some(2)).run(work).expect("no failures");
        assert!(crashed.complete().is_none());
        assert_eq!(crashed.executed, 2);
        assert_eq!(crashed.completed_labels.len(), 2);
        assert_eq!(runs.load(Ordering::SeqCst), 2);

        // Resume: only the missing jobs run; results are complete and ordered.
        let sweep = toy(&path, None);
        let resumed = sweep.run(work).expect("no failures");
        let n = sweep.jobs.len();
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.executed, n - 2);
        assert_eq!(runs.load(Ordering::SeqCst), n);
        let expected: Vec<SimStats> = (0..n).map(fake).collect();
        assert_eq!(resumed.complete(), Some(expected));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_switch_stops_at_exactly_n_whatever_is_in_flight() {
        let path = tmp("exact");
        let _ = std::fs::remove_file(&path);
        let sweep = Sweep {
            backend: Backend::Local(Executor::new(10)),
            ..toy(&path, Some(9))
        };
        assert_eq!(sweep.jobs.len(), 10);
        // Every job is in flight before any completes, so the switch trips
        // with the tenth still running.
        let all_started = std::sync::Barrier::new(10);
        let run = sweep
            .run(|i, _| {
                all_started.wait();
                fake(i)
            })
            .expect("no failures");
        assert!(run.complete().is_none(), "the tenth result must be dropped");
        assert_eq!(run.executed, 9);
        assert_eq!(run.completed_labels.len(), 9);
        let doc = std::fs::read_to_string(&path).expect("journal written");
        let job_lines = doc
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"job\""))
            .count();
        assert_eq!(job_lines, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reports_panics_with_labels() {
        let path = tmp("panics");
        let _ = std::fs::remove_file(&path);
        let sweep = toy(&path, None);
        let err = sweep
            .run(|i, job| {
                if i == 2 {
                    panic!("boom in {}", job.design);
                }
                fake(i)
            })
            .expect_err("job 2 panics");
        let label = sweep.jobs[2].label();
        match err {
            SweepFailure::Jobs(e) => {
                assert_eq!(e.failed.len(), 1);
                assert_eq!(e.failed[0].label, label);
                assert_eq!(e.failed[0].panic.index, 2);
                assert!(e.failed[0].panic.message.contains("boom"));
            }
            other => panic!("expected job failures, got {other}"),
        }
        // The panicking job is absent; the others were journaled.
        let j = JobJournal::open(&path, config_hash(&["toy"])).expect("reopen");
        assert_eq!(j.len(), sweep.jobs.len() - 1);
        assert!(!j.contains(&label));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn figure_journal_keeps_the_repro_hash_recipe() {
        // Every `repro fig16 --scale 0.02 --journal DIR` journal on disk
        // carries this hash: changing the recipe would strand them all.
        let dir = Path::new("journals");
        let sweep = Sweep::suite(&[DesignPoint::Shm, DesignPoint::ShmVL2], 0.02);
        let journal = Journal::figure(dir, "fig16", &sweep.jobs, None);
        assert_eq!(journal.config_hash, 0x176b_25b8_2a6c_e4a8);
        assert_eq!(journal.path, dir.join("fig16.jsonl"));
        let rescaled = Sweep::suite(&[DesignPoint::Shm, DesignPoint::ShmVL2], 1.0);
        assert_ne!(
            Journal::figure(dir, "fig16", &rescaled.jobs, None).config_hash,
            journal.config_hash
        );
    }
}
