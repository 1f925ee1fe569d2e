//! Work-pulling sweep coordinator.
//!
//! The coordinator owns the job list and a TCP listener.  Each connecting
//! worker is served by its own thread: after a hello whose version and
//! config hash must match, the thread keeps the worker's dispatch window
//! full from a shared pending queue (work-pulling — fast workers simply
//! pull more), collects result/error frames, and watches heartbeats.  A
//! worker that stops heartbeating (or drops its connection) is declared
//! dead and its in-flight jobs are pushed back onto the pending queue,
//! consuming the sweep-wide retry budget exactly like
//! `Executor::run_robust`: a job is retried while budget lasts, after
//! which it resolves as a [`JobPanic`] naming its label.  Completed
//! results are merged back into **submission order**, so a distributed
//! sweep is byte-identical to `--jobs 1`.
//!
//! # Byzantine worker defense
//!
//! Transport CRCs only catch accidental corruption; a worker can return
//! wrong-but-well-formed results with perfectly valid frames.  Two layers
//! defend against that (see `docs/DISTRIBUTED.md`):
//!
//! * **End-to-end digests** — every [`Frame::JobResult`] carries an
//!   FNV-1a digest of its payload, recomputed by the coordinator.  A
//!   mismatch quarantines the sender immediately: the result is
//!   discarded, the worker's unconfirmed past results are invalidated
//!   and re-run, and the worker is shut down and refused on reconnect.
//! * **Redundant dispatch (audit)** — a seeded sample of jobs
//!   ([`DistOptions::audit_per_mille`]) is dispatched to two *different*
//!   workers.  A job settles only when two copies agree (from distinct
//!   workers, or from the sole live worker when nobody else is
//!   available).  Disagreement triggers targeted re-asks of each
//!   producer: an honest worker reproduces its answer, a liar that
//!   contradicts itself is quarantined, and a deadlocked tie resolves as
//!   a *labelled* [`JobPanic`] — detected, never silent.
//!
//! Quarantine invalidations flow through the normal completion callback,
//! so the job journal simply overwrites the poisoned entry (last record
//! wins on replay).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sim_exec::{CancelToken, JobPanic, JobResult};

use crate::protocol::{
    payload_digest, write_frame, Frame, FrameError, FrameReader, PROTOCOL_VERSION,
};
use crate::{splitmix64, DistError, WorkerStats};

/// One unit of work shipped to a worker: a human-readable label (the
/// `"{benchmark} under {design}"` pair used everywhere for panic capture)
/// plus an opaque payload the submitting layer knows how to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistJob {
    pub label: String,
    pub payload: String,
}

/// Extra arbitration rounds an audited job may spend resolving a
/// disagreement before it fails as a labelled [`JobPanic`].
const MAX_AUDIT_ROUNDS: u32 = 2;

/// Tunables for a coordinator run.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// How long to wait for the first worker before giving up with
    /// [`DistError::NoWorkers`] (the degraded-mode trigger).
    pub connect_wait_ms: u64,
    /// A worker silent for longer than this (no frames, no heartbeats) is
    /// declared dead and its in-flight jobs are reassigned.
    pub heartbeat_timeout_ms: u64,
    /// Bounded per-read socket timeout; also the coordinator's bookkeeping
    /// tick.
    pub read_timeout_ms: u64,
    /// Sweep-wide budget of job re-dispatches (worker loss, job panic, or
    /// quarantine invalidation), mirroring `run_robust`'s retry budget.
    pub retry_budget: u32,
    /// Per-mille of jobs redundantly dispatched to two workers for the
    /// byzantine audit (0 = off, 1000 = every job).
    pub audit_per_mille: u32,
    /// Seed selecting *which* jobs are audited — same seed, same sample.
    pub audit_seed: u64,
    /// A dispatched job unanswered for longer than this declares the
    /// connection lost and requeues the worker's jobs (0 = off).  Rescues
    /// sweeps from silently dropped dispatch/result frames; must exceed
    /// the worst-case job run time when enabled.
    pub dispatch_timeout_ms: u64,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self {
            connect_wait_ms: 5_000,
            heartbeat_timeout_ms: 5_000,
            read_timeout_ms: 100,
            retry_budget: 64,
            audit_per_mille: 0,
            audit_seed: 0,
            dispatch_timeout_ms: 0,
        }
    }
}

impl DistOptions {
    /// Defaults with environment overrides applied
    /// (`SHM_HEARTBEAT_TIMEOUT_MS` for the heartbeat miss-threshold).
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Some(ms) = crate::env_u64(crate::HEARTBEAT_TIMEOUT_ENV) {
            opts.heartbeat_timeout_ms = ms.max(1);
        }
        opts
    }
}

/// Observed timing of one resolved job, for span reconstruction.
#[derive(Clone, Debug)]
pub struct JobTiming {
    /// Submission index.
    pub index: usize,
    /// Worker that delivered the (final) result.
    pub worker: String,
    /// Last dispatch time, ms since the sweep started (= queue wait, since
    /// every job is submitted at sweep start).
    pub dispatch_ms: u64,
    /// Resolution time, ms since the sweep started.
    pub end_ms: u64,
    /// Pure execution time measured on the worker (0 for failed jobs).
    pub run_ns: u64,
}

/// A job settled: the payload or failure the run loop hands to the
/// completion callback, on the calling thread, in occurrence order.
struct Resolution {
    index: usize,
    worker: String,
    outcome: JobResult<String>,
}

/// What a finished distributed sweep looked like.
#[derive(Debug)]
pub struct DistReport {
    /// Per-job outcomes in submission order; `None` only when the sweep
    /// was cancelled before the job ran (mirrors `map_cancellable`).
    pub results: Vec<Option<JobResult<String>>>,
    /// Per-worker accounting, in connection order.
    pub workers: Vec<WorkerStats>,
    /// Jobs re-queued because their worker died mid-flight.
    pub reassignments: u64,
    /// Retry budget consumed (reassignments + panic retries + audit
    /// re-asks + quarantine invalidations).
    pub retries_used: u32,
    /// True when the sweep stopped early on a tripped [`CancelToken`].
    pub interrupted: bool,
    /// Distributed-trace id minted for this sweep.
    pub trace_id: u64,
    /// Per-job timings in submission order (resolved jobs only).
    pub timings: Vec<JobTiming>,
    /// Workers quarantined for byzantine behaviour.
    pub quarantines: u64,
    /// Disagreements observed between redundant copies of audited jobs.
    pub audit_mismatches: u64,
    /// Results rejected because their end-to-end digest did not match.
    pub digest_mismatches: u64,
    /// Connections declared lost because a dispatched job went
    /// unanswered past [`DistOptions::dispatch_timeout_ms`].
    pub dispatch_timeouts: u64,
}

impl DistReport {
    /// True when every job resolved to a clean result.
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(|r| matches!(r, Some(Ok(_))))
    }
}

/// A queued copy of a job: submission index, attempt number (1 is the
/// first dispatch), and an optional target worker slot (audit re-asks are
/// targeted so each producer re-answers its own disputed job).
#[derive(Clone, Debug)]
struct PendingJob {
    index: usize,
    attempt: u32,
    target: Option<usize>,
}

/// Audit bookkeeping for one redundantly dispatched job.
#[derive(Default)]
struct AuditState {
    /// Worker slots ever assigned a copy (steers copies apart).
    holders: Vec<usize>,
    /// Delivered copies: (worker slot, payload, run_ns).
    produced: Vec<(usize, String, u64)>,
    /// Arbitration rounds spent on a disagreement.
    rounds: u32,
    /// The settled payload, once two copies agree.
    winner: Option<String>,
}

struct Inner {
    pending: VecDeque<PendingJob>,
    /// Latest dispatch time per job, ms since sweep start.
    dispatch_ms: HashMap<usize, u64>,
    /// Timing of each resolved job, recorded once at resolution.
    timings: HashMap<usize, JobTiming>,
    resolved: Vec<bool>,
    resolved_count: usize,
    in_flight_total: usize,
    /// Copies of each job currently on workers (dispatch-counted).
    dispatched_out: HashMap<usize, u32>,
    resolutions: VecDeque<Resolution>,
    retry_left: u32,
    retries_used: u32,
    reassignments: u64,
    workers: Vec<WorkerStats>,
    /// Liveness per worker slot (parallel to `workers`).
    live: Vec<bool>,
    live_workers: usize,
    ever_connected: bool,
    /// When the last live worker disappeared (cleared on reconnect); the
    /// run fails remaining jobs if nobody returns within the connect wait.
    workerless_since: Option<Instant>,
    cancelled: bool,
    done: bool,
    /// Audit state per audited job index.
    audit: HashMap<usize, AuditState>,
    /// Resolved-but-unconfirmed results: job index → delivering worker
    /// slot.  Quarantining that slot invalidates and re-runs these.
    delivered_by: HashMap<usize, usize>,
    quarantines: u64,
    audit_mismatches: u64,
    digest_mismatches: u64,
    dispatch_timeouts: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    cond: Condvar,
    jobs: Vec<DistJob>,
    opts: DistOptions,
    config_hash: u64,
    /// Sweep start; all job timings are relative to this.
    started: Instant,
    /// Trace id minted for this sweep, carried in every dispatch.
    trace_id: u64,
}

/// TCP sweep coordinator; see the module docs for the protocol.
pub struct Coordinator {
    listener: TcpListener,
    local_addr: SocketAddr,
    config_hash: u64,
    opts: DistOptions,
}

/// Whether job `index` is in the audit sample for this seed/per-mille.
fn audit_selected(per_mille: u32, seed: u64, index: usize) -> bool {
    per_mille > 0
        && splitmix64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000
            < u64::from(per_mille)
}

impl Coordinator {
    /// Binds the listener.  Use port 0 to let the OS pick (loopback tests
    /// and `SHM_DIST_WORKERS` self-spawned clusters read it back via
    /// [`Coordinator::local_addr`]).
    pub fn bind(addr: &str, config_hash: u64, opts: DistOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            config_hash,
            opts,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the sweep to completion; convenience wrapper over
    /// [`Coordinator::run_with`] without a completion callback.
    pub fn run(self, jobs: Vec<DistJob>, token: &CancelToken) -> Result<DistReport, DistError> {
        self.run_with(jobs, token, |_, _, _| {})
    }

    /// Runs the sweep, invoking `on_complete(index, worker_id, outcome)`
    /// on the calling thread as each job resolves (in completion order —
    /// the journal layer uses this to record which worker produced each
    /// job).  Results in the report are always in submission order.
    ///
    /// A job may resolve *twice*: a quarantine invalidates the results the
    /// byzantine worker delivered and re-runs them, so a later call
    /// overwrites the first (journals keep the last record per label, so
    /// a resume replays the honest result).
    pub fn run_with<F>(
        self,
        jobs: Vec<DistJob>,
        token: &CancelToken,
        mut on_complete: F,
    ) -> Result<DistReport, DistError>
    where
        F: FnMut(usize, &str, &JobResult<String>),
    {
        let n = jobs.len();
        // Trace id: wall-clock derived, unique enough to tell sweeps apart
        // in merged JSONL documents.
        let trace_id = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            | 1;
        shm_metrics::gauge!(
            "shm_heartbeat_timeout_ms",
            "Effective coordinator heartbeat miss-threshold"
        )
        .set(self.opts.heartbeat_timeout_ms as i64);
        shm_metrics::gauge!("shm_dist_jobs_total", "Jobs submitted to the current sweep")
            .set(n as i64);

        let audit: HashMap<usize, AuditState> = (0..n)
            .filter(|&i| audit_selected(self.opts.audit_per_mille, self.opts.audit_seed, i))
            .map(|i| (i, AuditState::default()))
            .collect();
        let mut pending: VecDeque<PendingJob> = VecDeque::with_capacity(n + audit.len());
        for i in 0..n {
            pending.push_back(PendingJob {
                index: i,
                attempt: 1,
                target: None,
            });
            if audit.contains_key(&i) {
                // Redundant copy for the byzantine audit.
                pending.push_back(PendingJob {
                    index: i,
                    attempt: 1,
                    target: None,
                });
            }
        }

        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                pending,
                dispatch_ms: HashMap::new(),
                timings: HashMap::new(),
                resolved: vec![false; n],
                resolved_count: 0,
                in_flight_total: 0,
                dispatched_out: HashMap::new(),
                resolutions: VecDeque::new(),
                retry_left: self.opts.retry_budget,
                retries_used: 0,
                reassignments: 0,
                workers: Vec::new(),
                live: Vec::new(),
                live_workers: 0,
                ever_connected: false,
                workerless_since: None,
                cancelled: false,
                done: false,
                audit,
                delivered_by: HashMap::new(),
                quarantines: 0,
                audit_mismatches: 0,
                digest_mismatches: 0,
                dispatch_timeouts: 0,
            }),
            cond: Condvar::new(),
            jobs,
            opts: self.opts.clone(),
            config_hash: self.config_hash,
            started: Instant::now(),
            trace_id,
        });

        let stop_accept = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop_accept);
            let listener = self.listener;
            listener.set_nonblocking(true).map_err(DistError::Io)?;
            std::thread::spawn(move || accept_loop(listener, shared, stop))
        };

        let mut results: Vec<Option<JobResult<String>>> = (0..n).map(|_| None).collect();
        let started = Instant::now();
        let connect_wait = Duration::from_millis(shared.opts.connect_wait_ms);
        let tick = Duration::from_millis(shared.opts.read_timeout_ms.max(10));
        let mut no_workers = false;

        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // Drain resolutions on this thread so `on_complete` (journal
            // appends) never runs under a connection thread.
            while let Some(r) = inner.resolutions.pop_front() {
                drop(inner);
                on_complete(r.index, &r.worker, &r.outcome);
                results[r.index] = Some(r.outcome);
                inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            }

            if inner.resolved_count == n {
                break;
            }
            if token.is_cancelled() && !inner.cancelled {
                inner.cancelled = true;
                // Jobs never dispatched stay unresolved (None), exactly
                // like `map_cancellable`; in-flight jobs drain.  (No
                // resolved-count arithmetic here: audited jobs hold
                // duplicate pending copies, so queue length is not a job
                // count — the break below keys on in-flight + resolutions.)
                inner.pending.clear();
                shared.cond.notify_all();
            }
            if inner.cancelled && inner.in_flight_total == 0 && inner.resolutions.is_empty() {
                break;
            }
            if !inner.ever_connected && started.elapsed() >= connect_wait {
                no_workers = true;
                break;
            }
            // All workers gone mid-sweep: give replacements one connect
            // window to appear, then fail the remaining jobs explicitly
            // rather than hanging forever.
            if inner.ever_connected && inner.live_workers == 0 && !inner.cancelled {
                let silent_for = inner.workerless_since.map(|t| t.elapsed());
                if silent_for.is_some_and(|d| d >= connect_wait) {
                    inner.pending.clear();
                    if inner.in_flight_total == 0 {
                        let unresolved: Vec<usize> =
                            (0..n).filter(|&i| !inner.resolved[i]).collect();
                        for index in unresolved {
                            resolve_panic(
                                &mut inner,
                                &shared,
                                index,
                                "",
                                "no live workers and reconnect window expired".into(),
                            );
                        }
                        continue; // resolutions drain next iteration
                    }
                }
            }
            inner = shared
                .cond
                .wait_timeout(inner, tick)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        inner.done = true;
        shared.cond.notify_all();
        let reassignments = inner.reassignments;
        let retries_used = inner.retries_used;
        let interrupted = inner.cancelled;
        drop(inner);

        stop_accept.store(true, Ordering::SeqCst);
        let conn_handles = accept_handle.join().unwrap_or_default();
        for h in conn_handles {
            let _ = h.join();
        }

        // Workers may have pushed final resolutions between the last drain
        // and `done`; collect them so no resolved job is lost.
        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        let workers = inner.workers.clone();
        let quarantines = inner.quarantines;
        let audit_mismatches = inner.audit_mismatches;
        let digest_mismatches = inner.digest_mismatches;
        let dispatch_timeouts = inner.dispatch_timeouts;
        while let Some(r) = inner.resolutions.pop_front() {
            drop(inner);
            on_complete(r.index, &r.worker, &r.outcome);
            results[r.index] = Some(r.outcome);
            inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        }
        let mut timings: Vec<JobTiming> = inner.timings.values().cloned().collect();
        timings.sort_by_key(|t| t.index);
        drop(inner);

        if no_workers {
            return Err(DistError::NoWorkers);
        }
        Ok(DistReport {
            results,
            workers,
            reassignments,
            retries_used,
            interrupted,
            trace_id,
            timings,
            quarantines,
            audit_mismatches,
            digest_mismatches,
            dispatch_timeouts,
        })
    }
}

/// Live, non-quarantined worker count.
fn live_nonquarantined(inner: &Inner) -> usize {
    inner
        .live
        .iter()
        .enumerate()
        .filter(|&(w, &l)| l && !inner.workers[w].quarantined)
        .count()
}

/// Resolve `index` as a labelled [`JobPanic`] — the detected-failure
/// terminal state; never silent.
fn resolve_panic(inner: &mut Inner, shared: &Shared, index: usize, worker: &str, message: String) {
    if inner.resolved[index] {
        return;
    }
    inner.resolved[index] = true;
    inner.resolved_count += 1;
    let end_ms = shared.started.elapsed().as_millis() as u64;
    let dispatch_ms = inner.dispatch_ms.get(&index).copied().unwrap_or(0);
    inner.timings.insert(
        index,
        JobTiming {
            index,
            worker: worker.to_string(),
            dispatch_ms,
            end_ms,
            run_ns: 0,
        },
    );
    let label = shared.jobs[index].label.clone();
    inner.resolutions.push_back(Resolution {
        index,
        worker: worker.to_string(),
        outcome: Err(JobPanic {
            index,
            label: Some(label),
            message,
        }),
    });
}

/// Keep an unresolved job live: if no copy is pending or on a worker,
/// queue one (no budget charge — this restores liveness after scrubs).
fn ensure_copy(inner: &mut Inner, index: usize) {
    if inner.resolved[index] {
        return;
    }
    let outstanding = inner.dispatched_out.get(&index).copied().unwrap_or(0);
    if outstanding == 0 && !inner.pending.iter().any(|p| p.index == index) {
        inner.pending.push_back(PendingJob {
            index,
            attempt: 2,
            target: None,
        });
    }
}

/// Try to settle an audited job: two agreeing copies from distinct
/// workers win (or from anyone, when at most one non-quarantined worker
/// is live — degraded audit beats deadlock).  Losing producers are
/// quarantined.
fn settle_audit(inner: &mut Inner, shared: &Shared, index: usize) {
    if inner.resolved[index] {
        return;
    }
    let lone = live_nonquarantined(inner) <= 1;
    let winner: Option<(String, usize, u64)> = {
        let Some(st) = inner.audit.get(&index) else {
            return;
        };
        if st.winner.is_some() {
            return;
        }
        // Group copies by payload: (payload, distinct slots, copies, run_ns).
        let mut groups: Vec<(&String, Vec<usize>, u32, u64)> = Vec::new();
        for (w, p, r) in &st.produced {
            if let Some(g) = groups.iter_mut().find(|g| g.0 == p) {
                if !g.1.contains(w) {
                    g.1.push(*w);
                }
                g.2 += 1;
            } else {
                groups.push((p, vec![*w], 1, *r));
            }
        }
        groups
            .iter()
            .find(|g| g.1.len() >= 2 || (lone && g.2 >= 2))
            .map(|g| (g.0.clone(), g.1[0], g.3))
    };
    let Some((payload, first_w, run_ns)) = winner else {
        return;
    };
    let losers: Vec<usize> = {
        // Defensive re-lookup: the winner was computed from this same entry
        // under the same lock, but a missing state must degrade to a no-op,
        // never crash the coordinator (see the stray-result quarantine path).
        let Some(st) = inner.audit.get_mut(&index) else {
            return;
        };
        st.winner = Some(payload.clone());
        let mut losers = Vec::new();
        for (w, p, _) in &st.produced {
            if *p != payload && !losers.contains(w) {
                losers.push(*w);
            }
        }
        losers
    };
    let worker_name = inner.workers[first_w].id.clone();
    let end_ms = shared.started.elapsed().as_millis() as u64;
    let dispatch_ms = inner.dispatch_ms.get(&index).copied().unwrap_or(0);
    inner.resolved[index] = true;
    inner.resolved_count += 1;
    inner.timings.insert(
        index,
        JobTiming {
            index,
            worker: worker_name.clone(),
            dispatch_ms,
            end_ms,
            run_ns,
        },
    );
    inner.resolutions.push_back(Resolution {
        index,
        worker: worker_name,
        outcome: Ok(payload),
    });
    if !losers.is_empty() {
        inner.audit_mismatches += losers.len() as u64;
        shm_metrics::counter!(
            "shm_audit_mismatches_total",
            "Disagreements between redundant copies of audited jobs"
        )
        .add(losers.len() as u64);
        for w in losers {
            // Audited result out-voted by agreeing copies.
            quarantine_worker(inner, shared, w);
        }
    }
}

/// An audited job's copies disagree with no majority yet: spend retry
/// budget on targeted re-asks (each producer re-answers its own disputed
/// job — honest workers reproduce, liars self-contradict), bounded by
/// [`MAX_AUDIT_ROUNDS`]; past that the job fails *labelled*.
///
/// A round ends only when every copy of the job is back: starting the next
/// round on the first answer would let a fast honest worker spend every
/// round before the liar's re-ask arrives to contradict itself.
fn arbitrate(inner: &mut Inner, shared: &Shared, index: usize) {
    if inner.resolved[index]
        || inner.dispatched_out.contains_key(&index)
        || inner.pending.iter().any(|p| p.index == index)
    {
        return;
    }
    let (mismatch, rounds, producers) = {
        let Some(st) = inner.audit.get(&index) else {
            return;
        };
        if st.winner.is_some() {
            return;
        }
        let mut payloads: Vec<&String> = Vec::new();
        let mut producers: Vec<usize> = Vec::new();
        for (w, p, _) in &st.produced {
            if !payloads.contains(&p) {
                payloads.push(p);
            }
            if !producers.contains(w) {
                producers.push(*w);
            }
        }
        (payloads.len() >= 2, st.rounds, producers)
    };
    if !mismatch {
        return;
    }
    inner.audit_mismatches += 1;
    shm_metrics::counter!(
        "shm_audit_mismatches_total",
        "Disagreements between redundant copies of audited jobs"
    )
    .inc();
    if rounds >= MAX_AUDIT_ROUNDS {
        resolve_panic(
            inner,
            shared,
            index,
            "",
            "byzantine audit unresolved: redundant copies disagree after arbitration".into(),
        );
        return;
    }
    for w in producers {
        if !inner.live.get(w).copied().unwrap_or(false) || inner.workers[w].quarantined {
            continue;
        }
        if inner.retry_left == 0 || inner.cancelled {
            resolve_panic(
                inner,
                shared,
                index,
                "",
                "byzantine audit unresolved: retry budget exhausted".into(),
            );
            return;
        }
        inner.retry_left -= 1;
        inner.retries_used += 1;
        shm_metrics::counter!(
            "shm_dist_retries_total",
            "Retry budget spent on panicked or lost jobs"
        )
        .inc();
        inner.pending.push_back(PendingJob {
            index,
            attempt: 2,
            target: Some(w),
        });
    }
    if let Some(st) = inner.audit.get_mut(&index) {
        st.rounds = rounds + 1;
    }
}

/// Quarantine a byzantine worker: scrub its audit contributions,
/// invalidate and re-run its unconfirmed results, and retarget its pending
/// re-asks.  Its connection thread
/// notices the flag, sends [`Frame::Shutdown`], and severs; reconnects
/// under the same worker id are refused at hello.
fn quarantine_worker(inner: &mut Inner, shared: &Shared, wslot: usize) {
    if inner.workers[wslot].quarantined {
        return;
    }
    inner.workers[wslot].quarantined = true;
    inner.quarantines += 1;
    shm_metrics::counter!(
        "shm_byzantine_quarantines_total",
        "Workers quarantined for byzantine behaviour"
    )
    .inc();
    let audited: Vec<usize> = inner.audit.keys().copied().collect();
    for &i in &audited {
        // Keys were collected under this lock, but stay panic-free on a
        // vanished entry — quarantine must never take the coordinator down.
        let Some(st) = inner.audit.get_mut(&i) else {
            continue;
        };
        if st.winner.is_none() {
            st.produced.retain(|(w, _, _)| *w != wslot);
            st.holders.retain(|w| *w != wslot);
        }
    }
    for p in inner.pending.iter_mut() {
        if p.target == Some(wslot) {
            p.target = None;
        }
    }
    let suspect: Vec<usize> = inner
        .delivered_by
        .iter()
        .filter(|&(_, &w)| w == wslot)
        .map(|(&i, _)| i)
        .collect();
    for index in suspect {
        inner.delivered_by.remove(&index);
        if inner.done || !inner.resolved[index] {
            continue;
        }
        inner.resolved[index] = false;
        inner.resolved_count -= 1;
        inner.timings.remove(&index);
        if inner.retry_left > 0 && !inner.cancelled {
            inner.retry_left -= 1;
            inner.retries_used += 1;
            shm_metrics::counter!(
                "shm_dist_retries_total",
                "Retry budget spent on panicked or lost jobs"
            )
            .inc();
            inner.pending.push_back(PendingJob {
                index,
                attempt: 2,
                target: None,
            });
        } else {
            let id = inner.workers[wslot].id.clone();
            resolve_panic(
                inner,
                shared,
                index,
                &id,
                format!(
                    "result from quarantined worker '{id}' discarded and retry budget exhausted"
                ),
            );
        }
    }
    // The scrub may have completed — or starved — audited jobs.
    for i in audited {
        settle_audit(inner, shared, i);
        ensure_copy(inner, i);
    }
}

/// Whether worker `wslot` may take pending copy `p`.  Targeted re-asks go
/// to their target (or anyone once the target is gone); audit copies
/// avoid workers already holding a copy while an unexposed live worker
/// exists, so redundant copies land on distinct workers whenever
/// possible.
fn eligible(inner: &Inner, p: &PendingJob, wslot: usize) -> bool {
    match p.target {
        Some(t) if t == wslot => true,
        Some(t) => {
            // Target gone or quarantined: anyone may pick the copy up.
            !inner.live.get(t).copied().unwrap_or(false) || inner.workers[t].quarantined
        }
        None => {
            if let Some(st) = inner.audit.get(&p.index) {
                if st.winner.is_none() && st.holders.contains(&wslot) {
                    !inner.live.iter().enumerate().any(|(w, &l)| {
                        l && w != wslot && !inner.workers[w].quarantined && !st.holders.contains(&w)
                    })
                } else {
                    true
                }
            } else {
                true
            }
        }
    }
}

fn dec_dispatched(inner: &mut Inner, index: usize) {
    if let Some(c) = inner.dispatched_out.get_mut(&index) {
        *c = c.saturating_sub(1);
        if *c == 0 {
            inner.dispatched_out.remove(&index);
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut handles = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || serve_connection(stream, shared)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
    handles
}

/// Per-connection worker driver; see module docs.
fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.opts.read_timeout_ms.max(10),
    )));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = FrameReader::new(stream);

    // --- Hello, within a bounded window ---
    let hello_deadline = Instant::now() + Duration::from_millis(shared.opts.heartbeat_timeout_ms);
    let hello = loop {
        match reader.read_frame() {
            Ok(Frame::Hello {
                version,
                config_hash,
                worker_id,
                window,
                // The coordinator↔worker link is config-hash gated, not
                // token gated; tenant tokens guard the serve daemon's
                // client handshake instead.
                token: _,
            }) => break (version, config_hash, worker_id, window),
            Ok(_) => {
                let _ = write_frame(
                    &mut writer,
                    &Frame::HelloAck {
                        accepted: false,
                        reason: "expected hello".into(),
                    },
                );
                return;
            }
            Err(FrameError::Timeout) if Instant::now() < hello_deadline => continue,
            Err(_) => return,
        }
    };
    let (version, config_hash, worker_id, window) = hello;
    if version != PROTOCOL_VERSION {
        let _ = write_frame(
            &mut writer,
            &Frame::HelloAck {
                accepted: false,
                reason: format!(
                    "protocol version mismatch: coordinator {PROTOCOL_VERSION}, worker {version}"
                ),
            },
        );
        return;
    }
    if config_hash != shared.config_hash {
        let _ = write_frame(
            &mut writer,
            &Frame::HelloAck {
                accepted: false,
                reason: format!(
                    "config hash mismatch: coordinator {:016x}, worker {:016x}",
                    shared.config_hash, config_hash
                ),
            },
        );
        return;
    }
    // A quarantined worker reconnecting (e.g. its Shutdown got lost in
    // transit) is refused permanently — byzantine peers don't get a
    // second identity under the same name.
    {
        let inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        let refused = inner
            .workers
            .iter()
            .any(|w| w.id == worker_id && w.quarantined);
        drop(inner);
        if refused {
            let _ = write_frame(
                &mut writer,
                &Frame::HelloAck {
                    accepted: false,
                    reason: format!("worker '{worker_id}' is quarantined"),
                },
            );
            return;
        }
    }
    if write_frame(
        &mut writer,
        &Frame::HelloAck {
            accepted: true,
            reason: String::new(),
        },
    )
    .is_err()
    {
        return;
    }

    // --- Register ---
    let window = window.max(1) as usize;
    let wslot = {
        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.workers.push(WorkerStats::new(&worker_id));
        inner.live.push(true);
        inner.live_workers += 1;
        inner.ever_connected = true;
        inner.workerless_since = None;
        shared.cond.notify_all();
        inner.workers.len() - 1
    };

    let heartbeat_timeout = Duration::from_millis(shared.opts.heartbeat_timeout_ms);
    // Copies of each job on this worker: index → attempt per copy (an
    // audited job may run twice here when no other worker is live).
    let mut in_flight: HashMap<usize, Vec<u32>> = HashMap::new();
    let mut in_flight_count: usize = 0;
    let mut dispatched_at: HashMap<usize, Instant> = HashMap::new();
    let mut last_seen = Instant::now();
    let mut cancel_sent = false;
    let mut lost = false;
    // Set when the worker announces a graceful drain ([`Frame::Drain`]):
    // no new dispatches, and its eventual departure is free of charge.
    let mut draining = false;

    // Live per-worker gauges, aggregated at the coordinator for /metrics
    // and `shm top`.  Registered eagerly so a scrape shows the worker even
    // before its first stats reply.
    let worker_labels: &[(&str, &str)] = &[("worker", worker_id.as_str())];
    let g_in_flight = shm_metrics::labeled_gauge(
        "shm_worker_in_flight",
        "Jobs executing on the worker right now",
        worker_labels,
    );
    let g_queued = shm_metrics::labeled_gauge(
        "shm_worker_queued",
        "Jobs dispatched to the worker but not yet started",
        worker_labels,
    );
    let g_completed = shm_metrics::labeled_gauge(
        "shm_worker_completed",
        "Jobs the worker has completed since connecting",
        worker_labels,
    );
    let g_heartbeat_age = shm_metrics::labeled_gauge(
        "shm_worker_heartbeat_age_ms",
        "Milliseconds since the worker was last heard from",
        worker_labels,
    );
    let stats_poll_every = Duration::from_millis(500);
    // Backdate the first poll so even a sweep shorter than the poll period
    // exports one stats sample per worker.
    let mut last_stats_poll = Instant::now() - stats_poll_every;

    'conn: loop {
        // Quarantined by another thread's verdict: shut the worker down
        // and sever; the dereg path requeues whatever it still held.
        {
            let inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let q = inner.workers[wslot].quarantined;
            drop(inner);
            if q {
                let _ = write_frame(&mut writer, &Frame::Shutdown);
                lost = true;
                break 'conn;
            }
        }

        // Keep the dispatch window full.
        loop {
            let dispatch = {
                let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                if inner.done {
                    let _ = write_frame(&mut writer, &Frame::Shutdown);
                    break 'conn;
                }
                if inner.cancelled || draining || in_flight_count >= window {
                    None
                } else {
                    let mut picked: Option<PendingJob> = None;
                    let mut scanned = 0;
                    let max_scan = inner.pending.len();
                    while scanned < max_scan {
                        let Some(p) = inner.pending.pop_front() else {
                            break;
                        };
                        scanned += 1;
                        if inner.resolved[p.index] {
                            continue; // stale copy of a settled job
                        }
                        if eligible(&inner, &p, wslot) {
                            picked = Some(p);
                            break;
                        }
                        inner.pending.push_back(p);
                    }
                    if let Some(p) = &picked {
                        // Counted from the pick, not the send, so a copy is
                        // always either pending or outstanding.
                        inner.in_flight_total += 1;
                        *inner.dispatched_out.entry(p.index).or_insert(0) += 1;
                    }
                    picked
                }
            };
            match dispatch {
                Some(p) => {
                    let job = &shared.jobs[p.index];
                    let frame = Frame::JobDispatch {
                        index: p.index as u64,
                        label: job.label.clone(),
                        payload: job.payload.clone(),
                        trace_id: shared.trace_id,
                        // Span ids are deterministic: root = 1, job i = i+2
                        // (matching telemetry's span-tree convention).
                        span_id: p.index as u64 + 2,
                    };
                    match write_frame(&mut writer, &frame) {
                        Ok(bytes) => {
                            in_flight.entry(p.index).or_default().push(p.attempt);
                            in_flight_count += 1;
                            dispatched_at.insert(p.index, Instant::now());
                            let dispatched_ms = shared.started.elapsed().as_millis() as u64;
                            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                            inner.workers[wslot].bytes_sent += bytes as u64;
                            inner.dispatch_ms.insert(p.index, dispatched_ms);
                            if let Some(st) = inner.audit.get_mut(&p.index) {
                                if !st.holders.contains(&wslot) {
                                    st.holders.push(wslot);
                                }
                            }
                            shared.cond.notify_all();
                        }
                        Err(_) => {
                            // Send failed: hand the job straight back (no
                            // budget charge — it never reached the worker).
                            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                            dec_dispatched(&mut inner, p.index);
                            inner.pending.push_front(p);
                            inner.in_flight_total -= 1;
                            inner.reassignments += 1;
                            inner.workers[wslot].reassigned += 1;
                            lost = true;
                            break 'conn;
                        }
                    }
                }
                None => break,
            }
        }

        // Propagate cancellation once.
        {
            let inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let cancelled = inner.cancelled;
            drop(inner);
            if cancelled && !cancel_sent {
                cancel_sent = true;
                if write_frame(&mut writer, &Frame::Cancel).is_err() {
                    lost = true;
                    break 'conn;
                }
            }
        }

        // Poll worker stats for the live gauges (only while someone is
        // actually collecting metrics — the wire stays quiet otherwise).
        if shm_metrics::enabled() && last_stats_poll.elapsed() >= stats_poll_every {
            last_stats_poll = Instant::now();
            if write_frame(&mut writer, &Frame::StatsRequest).is_err() {
                lost = true;
                break 'conn;
            }
        }
        shm_metrics::enabled().then(|| g_heartbeat_age.set(last_seen.elapsed().as_millis() as i64));

        // Collect one frame (bounded timeout doubles as the liveness tick).
        match reader.read_frame() {
            Ok(Frame::Heartbeat { .. }) => {
                last_seen = Instant::now();
                shm_metrics::counter!(
                    "shm_dist_heartbeats_total",
                    "Heartbeat frames received from workers"
                )
                .inc();
            }
            Ok(Frame::StatsReply {
                in_flight: wf,
                queued,
                completed,
            }) => {
                last_seen = Instant::now();
                g_in_flight.set(wf as i64);
                g_queued.set(queued as i64);
                g_completed.set(completed as i64);
            }
            Ok(Frame::JobResult {
                index,
                payload,
                run_ns,
                digest,
            }) => {
                last_seen = Instant::now();
                let index = index as usize;
                if index >= shared.jobs.len() {
                    // A result for a job that cannot exist is byzantine,
                    // not line noise: quarantine the sender and sever.
                    // (In-range duplicates stay ignored below — the chaos
                    // proxy duplicates frames from honest workers.)
                    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    quarantine_worker(&mut inner, &shared, wslot);
                    shared.cond.notify_all();
                    drop(inner);
                    let _ = write_frame(&mut writer, &Frame::Shutdown);
                    lost = true;
                    break 'conn;
                }
                let popped = match in_flight.get_mut(&index) {
                    Some(copies) => {
                        let a = copies.pop();
                        if copies.is_empty() {
                            in_flight.remove(&index);
                            dispatched_at.remove(&index);
                        }
                        a
                    }
                    None => None, // duplicate or stale frame — ignore
                };
                if popped.is_some() {
                    in_flight_count -= 1;
                    // End-to-end digest check, independent of the frame
                    // CRC: a mismatch is byzantine, not line noise.
                    if payload_digest(payload.as_bytes()) != digest {
                        shm_metrics::counter!(
                            "shm_digest_mismatches_total",
                            "Job results rejected for an end-to-end digest mismatch"
                        )
                        .inc();
                        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                        inner.digest_mismatches += 1;
                        inner.in_flight_total -= 1;
                        dec_dispatched(&mut inner, index);
                        quarantine_worker(&mut inner, &shared, wslot);
                        ensure_copy(&mut inner, index);
                        shared.cond.notify_all();
                        drop(inner);
                        let _ = write_frame(&mut writer, &Frame::Shutdown);
                        lost = true;
                        break 'conn;
                    }
                    shm_metrics::counter!(
                        "shm_jobs_completed_total",
                        "Sweep jobs resolved by the coordinator"
                    )
                    .inc();
                    shm_metrics::histogram!("shm_job_run_ms", "Worker-measured job run time (ms)")
                        .observe(run_ns / 1_000_000);
                    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    inner.in_flight_total -= 1;
                    dec_dispatched(&mut inner, index);
                    inner.workers[wslot].jobs_done += 1;
                    inner.workers[wslot].bytes_received += payload.len() as u64;
                    if inner.workers[wslot].quarantined {
                        // Verdict landed while this result was in transit:
                        // never accept it.
                        ensure_copy(&mut inner, index);
                    } else if inner.audit.contains_key(&index) {
                        let action = match inner.audit.get_mut(&index) {
                            Some(st) => {
                                if let Some(w) = st.winner.clone() {
                                    if w != payload {
                                        1 // post-settle contradiction
                                    } else {
                                        0 // late agreeing copy: stats only
                                    }
                                } else if st
                                    .produced
                                    .iter()
                                    .any(|(pw, pp, _)| *pw == wslot && *pp != payload)
                                {
                                    st.produced.push((wslot, payload.clone(), run_ns));
                                    2 // contradicted its own earlier copy
                                } else {
                                    st.produced.push((wslot, payload.clone(), run_ns));
                                    3 // recorded; try to settle
                                }
                            }
                            // Unreachable by the guard above (same lock),
                            // but an unknown audit state must quarantine
                            // the sender, never panic the coordinator.
                            None => 4,
                        };
                        if action == 1 || action == 2 {
                            // A contradiction is an observed audit
                            // mismatch even when it never reaches a vote.
                            inner.audit_mismatches += 1;
                            shm_metrics::counter!(
                                "shm_audit_mismatches_total",
                                "Disagreements between redundant copies of audited jobs"
                            )
                            .inc();
                        }
                        match action {
                            // Result contradicts settled audit winner.
                            1 => quarantine_worker(&mut inner, &shared, wslot),
                            // Self-contradiction on audited job.
                            2 => quarantine_worker(&mut inner, &shared, wslot),
                            3 => {
                                settle_audit(&mut inner, &shared, index);
                                arbitrate(&mut inner, &shared, index);
                                // Same-worker copies can't settle while a
                                // second worker is live (independence
                                // rule): keep one copy outstanding so it
                                // lands on a distinct worker.
                                ensure_copy(&mut inner, index);
                            }
                            // Result for an unknown audit state.
                            4 => quarantine_worker(&mut inner, &shared, wslot),
                            _ => {}
                        }
                    } else if !inner.resolved[index] {
                        let end_ms = shared.started.elapsed().as_millis() as u64;
                        inner.resolved[index] = true;
                        inner.resolved_count += 1;
                        let dispatch_ms = inner.dispatch_ms.get(&index).copied().unwrap_or(0);
                        inner.timings.insert(
                            index,
                            JobTiming {
                                index,
                                worker: worker_id.clone(),
                                dispatch_ms,
                                end_ms,
                                run_ns,
                            },
                        );
                        // Unaudited single: provisionally confirmed — a
                        // later quarantine of this worker re-runs it.
                        inner.delivered_by.insert(index, wslot);
                        inner.resolutions.push_back(Resolution {
                            index,
                            worker: worker_id.clone(),
                            outcome: Ok(payload),
                        });
                    }
                    shared.cond.notify_all();
                }
            }
            Ok(Frame::JobError { index, message }) => {
                last_seen = Instant::now();
                let index = index as usize;
                if index >= shared.jobs.len() {
                    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    // Error report for an unknown job index.
                    quarantine_worker(&mut inner, &shared, wslot);
                    shared.cond.notify_all();
                    drop(inner);
                    let _ = write_frame(&mut writer, &Frame::Shutdown);
                    lost = true;
                    break 'conn;
                }
                let popped = match in_flight.get_mut(&index) {
                    Some(copies) => {
                        let a = copies.pop();
                        if copies.is_empty() {
                            in_flight.remove(&index);
                            dispatched_at.remove(&index);
                        }
                        a
                    }
                    None => None,
                };
                if let Some(attempt) = popped {
                    in_flight_count -= 1;
                    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    inner.in_flight_total -= 1;
                    dec_dispatched(&mut inner, index);
                    // `run_robust` semantics: retry a panicked job exactly
                    // once while the sweep-wide budget lasts.
                    if attempt == 1 && inner.retry_left > 0 && !inner.cancelled {
                        inner.retry_left -= 1;
                        inner.retries_used += 1;
                        shm_metrics::counter!(
                            "shm_dist_retries_total",
                            "Retry budget spent on panicked or lost jobs"
                        )
                        .inc();
                        inner.pending.push_back(PendingJob {
                            index,
                            attempt: attempt + 1,
                            target: None,
                        });
                    } else {
                        resolve_panic(&mut inner, &shared, index, &worker_id, message);
                    }
                    shared.cond.notify_all();
                }
            }
            Ok(Frame::Drain { .. }) => {
                // Graceful goodbye (rolling restart): stop dispatching to
                // this worker but keep reading — it is still flushing
                // results for everything it already accepted.  When it
                // closes, in-flight stragglers requeue free of charge.
                last_seen = Instant::now();
                draining = true;
            }
            Ok(Frame::Shutdown) | Ok(Frame::Cancel) => {
                // A worker announcing departure: treat like a clean loss.
                lost = true;
                break 'conn;
            }
            Ok(_) => {
                lost = true; // protocol violation
                break 'conn;
            }
            Err(FrameError::Timeout) => {
                if last_seen.elapsed() >= heartbeat_timeout {
                    lost = true; // missed heartbeats → dead worker
                    break 'conn;
                }
                if shared.opts.dispatch_timeout_ms > 0 {
                    let limit = Duration::from_millis(shared.opts.dispatch_timeout_ms);
                    if dispatched_at.values().any(|t| t.elapsed() >= limit) {
                        // A dispatched job went unanswered too long —
                        // likely a dropped dispatch or result frame.
                        // Declare the link lost so everything requeues.
                        shm_metrics::counter!(
                            "shm_dist_dispatch_timeouts_total",
                            "Connections dropped because a dispatched job went unanswered"
                        )
                        .inc();
                        let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                        inner.dispatch_timeouts += 1;
                        drop(inner);
                        lost = true;
                        break 'conn;
                    }
                }
            }
            Err(_) => {
                lost = true; // EOF / reset / corrupt stream
                break 'conn;
            }
        }
    }

    // --- Deregister; reassign anything this worker still held ---
    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    if lost {
        inner.live[wslot] = false;
        inner.live_workers -= 1;
        if inner.live_workers == 0 {
            inner.workerless_since = Some(Instant::now());
        }
        for (index, attempts) in in_flight.drain() {
            for attempt in attempts {
                inner.in_flight_total -= 1;
                dec_dispatched(&mut inner, index);
                if inner.resolved[index] {
                    continue; // stale copy of a settled job
                }
                if draining {
                    // Announced departure (rolling restart): the worker
                    // drained what it could; stragglers that were still in
                    // transit requeue without burning a reassignment or a
                    // retry-budget slot.
                    inner.pending.push_front(PendingJob {
                        index,
                        attempt,
                        target: None,
                    });
                    continue;
                }
                inner.workers[wslot].reassigned += 1;
                inner.reassignments += 1;
                shm_metrics::counter!(
                    "shm_dist_reassignments_total",
                    "Jobs re-queued because their worker died mid-flight"
                )
                .inc();
                if inner.retry_left > 0 && !inner.cancelled {
                    inner.retry_left -= 1;
                    inner.retries_used += 1;
                    shm_metrics::counter!(
                        "shm_dist_retries_total",
                        "Retry budget spent on panicked or lost jobs"
                    )
                    .inc();
                    inner.pending.push_front(PendingJob {
                        index,
                        attempt,
                        target: None,
                    });
                } else {
                    let msg = format!(
                        "worker '{worker_id}' lost with job in flight and retry budget exhausted"
                    );
                    resolve_panic(&mut inner, &shared, index, &worker_id, msg);
                }
            }
        }
        // Re-asks targeted at this worker can go to anyone now.
        for p in inner.pending.iter_mut() {
            if p.target == Some(wslot) {
                p.target = None;
            }
        }
    }
    shared.cond.notify_all();
}
