//! Sweep worker: connects to a coordinator, pulls jobs, runs them on a
//! local pool (`sim-exec`'s job loop, `Executor::pull`, over the queue of
//! dispatched jobs), and streams results back.
//!
//! The worker reconnects with exponential backoff when the coordinator is
//! unreachable or the connection drops mid-sweep; a rejected hello
//! (version or config-hash mismatch) is permanent and aborts immediately.
//! A heartbeat thread beacons liveness on a timer independent of job
//! execution, so a worker grinding through a long simulation is never
//! mistaken for a dead one.

use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sim_exec::{effective_jobs, Executor};

use crate::conn::{self, Peer};
use crate::protocol::{payload_digest, write_frame, Frame, FrameError};
use crate::{splitmix64, DistError};

/// Tunables for [`run_worker`].
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Name reported to the coordinator (shows up in journals and the
    /// per-worker telemetry).
    pub worker_id: String,
    /// Local pool width; `None` resolves like `Executor::from_env`.
    pub jobs: Option<usize>,
    /// Liveness beacon period.
    pub heartbeat_interval_ms: u64,
    /// Bounded per-read socket timeout.
    pub read_timeout_ms: u64,
    /// First reconnect delay; doubles per attempt (plus deterministic
    /// per-worker jitter — see [`backoff_ms`]) up to
    /// [`WorkerOptions::reconnect_max_ms`].
    pub reconnect_base_ms: u64,
    /// Backoff ceiling.
    pub reconnect_max_ms: u64,
    /// Consecutive failed connect attempts tolerated before giving up
    /// (`SHM_RECONNECT_ATTEMPTS`).
    pub max_reconnect_attempts: u32,
    /// Test knob: abruptly drop the connection (no reconnect, no goodbye)
    /// after this many results have been sent — the deterministic
    /// "worker killed mid-sweep" used by the reassignment tests.
    pub disconnect_after_jobs: Option<u64>,
    /// Test knob: initiate a *graceful* drain (same path as SIGTERM —
    /// announce [`Frame::Drain`], finish accepted work, final heartbeat,
    /// clean exit) after this many results have been sent.
    pub drain_after_jobs: Option<u64>,
    /// Byzantine test knob: every Nth result is *tampered before* its
    /// end-to-end digest is computed — a consistent liar whose frames and
    /// digests all verify.  Only redundant dispatch (coordinator audit)
    /// can catch it.
    pub byzantine_lie_every: Option<u64>,
    /// Byzantine test knob: every Nth result ships a correct payload with
    /// a *wrong* end-to-end digest — caught immediately by the
    /// coordinator's digest re-check, independent of the frame CRC.
    pub byzantine_bad_digest_every: Option<u64>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            worker_id: format!("worker-{}", std::process::id()),
            jobs: None,
            heartbeat_interval_ms: 500,
            read_timeout_ms: 100,
            reconnect_base_ms: 100,
            reconnect_max_ms: 5_000,
            max_reconnect_attempts: 5,
            disconnect_after_jobs: None,
            drain_after_jobs: None,
            byzantine_lie_every: None,
            byzantine_bad_digest_every: None,
        }
    }
}

impl WorkerOptions {
    /// Defaults with the heartbeat interval overridable via
    /// [`crate::HEARTBEAT_INTERVAL_ENV`] (`SHM_HEARTBEAT_MS`) and the
    /// reconnect budget via [`crate::RECONNECT_ATTEMPTS_ENV`]
    /// (`SHM_RECONNECT_ATTEMPTS`).
    pub fn from_env() -> Self {
        let mut opts = Self::default();
        if let Some(ms) = crate::env_u64(crate::HEARTBEAT_INTERVAL_ENV) {
            opts.heartbeat_interval_ms = ms;
        }
        if let Some(n) = crate::env_u64(crate::RECONNECT_ATTEMPTS_ENV) {
            opts.max_reconnect_attempts = n.min(u32::MAX as u64) as u32;
        }
        opts
    }
}

/// What one worker did over its lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    pub jobs_done: u64,
    pub bytes_received: u64,
    pub bytes_sent: u64,
    pub reconnects: u32,
}

enum ServeEnd {
    /// Coordinator said [`Frame::Shutdown`] (sweep complete), or
    /// `disconnect_after_jobs` fired (a simulated kill).
    Done,
    /// Connection dropped after a completed handshake.
    Lost,
    /// Connection failed *before* the hello/ack completed (I/O error,
    /// corrupt ack, ack timeout).
    HandshakeLost,
}

/// Connects to `addr` and serves jobs until the coordinator shuts the
/// sweep down.  `handler(label, payload) -> result_payload` runs under
/// panic capture; a panicking job reports a [`Frame::JobError`] carrying
/// the payload text and the worker keeps serving.
pub fn run_worker<H>(
    addr: &str,
    config_hash: u64,
    opts: WorkerOptions,
    handler: H,
) -> Result<WorkerSummary, DistError>
where
    H: Fn(&str, &str) -> String + Send + Sync,
{
    let mut summary = WorkerSummary::default();
    let mut attempt: u32 = 0;
    loop {
        // A loss after a completed handshake restarts the attempt budget
        // at 1 (the link was demonstrably healthy); a failed connect or
        // handshake keeps counting, so a link that never handshakes
        // exhausts the budget instead of spinning.
        let (fresh, last_error) = match TcpStream::connect(addr) {
            Err(e) => (false, e.to_string()),
            Ok(stream) => {
                let end = serve(stream, config_hash, &opts, &handler, &mut summary)?;
                let (fresh, why) = match end {
                    ServeEnd::Done => return Ok(summary),
                    ServeEnd::Lost => (true, "connection lost"),
                    ServeEnd::HandshakeLost => (false, "handshake kept failing"),
                };
                summary.reconnects += 1;
                (fresh, format!("{why} and retries exhausted"))
            }
        };
        attempt = if fresh { 1 } else { attempt + 1 };
        if attempt > opts.max_reconnect_attempts {
            return Err(DistError::Unreachable {
                addr: addr.to_string(),
                attempts: attempt - 1,
                last_error,
            });
        }
        std::thread::sleep(backoff(&opts, attempt));
    }
}

fn backoff(opts: &WorkerOptions, attempt: u32) -> Duration {
    Duration::from_millis(backoff_ms(opts, attempt))
}

/// Reconnect delay for the `attempt`-th consecutive failure: exponential
/// base doubling, plus a deterministic per-worker jitter in `[0, exp/2]`
/// keyed on (worker id, attempt), the whole thing capped at
/// [`WorkerOptions::reconnect_max_ms`].
pub(crate) fn backoff_ms(opts: &WorkerOptions, attempt: u32) -> u64 {
    let exp = opts
        .reconnect_base_ms
        .saturating_mul(1u64 << attempt.min(16).saturating_sub(1))
        .min(opts.reconnect_max_ms);
    let key = payload_digest(opts.worker_id.as_bytes()) ^ u64::from(attempt);
    let jitter = if exp >= 2 {
        splitmix64(key) % (exp / 2 + 1)
    } else {
        0
    };
    exp.saturating_add(jitter).min(opts.reconnect_max_ms)
}

/// One dispatched job: submission index, label, payload.
type Job = (u64, String, String);

fn serve<H>(
    stream: TcpStream,
    config_hash: u64,
    opts: &WorkerOptions,
    handler: &H,
    summary: &mut WorkerSummary,
) -> Result<ServeEnd, DistError>
where
    H: Fn(&str, &str) -> String + Send + Sync,
{
    shm_metrics::gauge!(
        "shm_heartbeat_interval_ms",
        "Worker liveness beacon period in milliseconds"
    )
    .set(opts.heartbeat_interval_ms as i64);
    let pool_width = effective_jobs(opts.jobs).max(1);
    let tick = Duration::from_millis(opts.read_timeout_ms.max(10));
    let (mut reader, mut writer) = conn::split(stream, tick)?;

    // --- Handshake ---
    // Connection-scoped failures here (I/O, corrupt ack, timeout) come
    // back as [`ServeEnd::HandshakeLost`] so the caller retries on a
    // *fresh* stream; only a policy rejection from the coordinator is
    // fatal.  A poisoned/corrupt stream is never read again (fail-closed).
    let me = Peer {
        id: opts.worker_id.clone(),
        window: pool_width as u32,
    };
    match conn::send_hello(&mut reader, &mut writer, config_hash, &me) {
        Ok(sent) => summary.bytes_sent += sent as u64,
        Err(rejected @ DistError::Rejected { .. }) => return Err(rejected),
        Err(_) => return Ok(ServeEnd::HandshakeLost),
    }

    // --- Serve ---
    let writer = Mutex::new(writer);
    let jobs_done = AtomicU64::new(summary.jobs_done);
    let bytes_sent = AtomicU64::new(0);
    // Set once this connection is over: the heartbeat stops and the pool
    // finishes what is queued, then stops pulling.
    let stop = AtomicBool::new(false);
    let killed = AtomicBool::new(false);
    let queue: Mutex<VecDeque<Job>> = Mutex::new(VecDeque::new());
    let queue_cond = Condvar::new();
    // Dispatched and not yet answered: queued plus running.
    let in_flight = AtomicU64::new(0);
    // Counts results built on this connection — drives the byzantine
    // "every Nth result" test knobs.
    let result_seq = AtomicU64::new(0);

    let send = |frame: &Frame| {
        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
        let sent = write_frame(&mut *w, frame);
        if let Ok(n) = sent {
            bytes_sent.fetch_add(n as u64, Ordering::SeqCst);
        }
        sent.is_ok()
    };
    // Ends the pool: `drop_queued` also discards jobs not yet started.
    let close = |drop_queued: bool| {
        stop.store(true, Ordering::SeqCst);
        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
        if drop_queued {
            q.clear();
        }
        queue_cond.notify_all();
    };
    let idle = || {
        in_flight.load(Ordering::SeqCst) == 0
            && queue.lock().unwrap_or_else(|e| e.into_inner()).is_empty()
    };

    // The local pool's job source: blocks until a job is queued, and ends
    // once the connection is over and the queue is empty.
    let next = || {
        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if stop.load(Ordering::SeqCst) {
                return None;
            }
            q = queue_cond.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    };
    let work = |(_, label, payload): &Job| {
        let run_started = Instant::now();
        let result = handler(label, payload);
        (result, run_started.elapsed().as_nanos() as u64)
    };
    let done = |(index, _, _): Job, outcome: Result<(String, u64), String>| {
        let frame = match outcome {
            Ok((mut result, run_ns)) => {
                let seq = result_seq.fetch_add(1, Ordering::SeqCst) + 1;
                if let Some(n) = opts.byzantine_lie_every {
                    if n > 0 && seq.is_multiple_of(n) {
                        // Consistent liar: tamper *before* digesting, and
                        // salt by seq so repeated lies differ — two
                        // identical lies must never out-vote the truth in
                        // a majority audit.
                        result = tamper_first_digit(&result, seq);
                    }
                }
                let mut digest = payload_digest(result.as_bytes());
                if let Some(n) = opts.byzantine_bad_digest_every {
                    if n > 0 && seq.is_multiple_of(n) {
                        digest ^= 0xDEAD_BEEF_DEAD_BEEF;
                    }
                }
                Frame::JobResult {
                    index,
                    payload: result,
                    run_ns,
                    digest,
                }
            }
            Err(message) => Frame::JobError { index, message },
        };
        let done_now = send(&frame).then(|| jobs_done.fetch_add(1, Ordering::SeqCst) + 1);
        in_flight.fetch_sub(1, Ordering::SeqCst);
        let kill_due = opts
            .disconnect_after_jobs
            .is_some_and(|k| done_now.is_some_and(|n| n >= k));
        if kill_due && !killed.swap(true, Ordering::SeqCst) {
            // Simulate a kill: sever the socket abruptly and stop
            // everything; dispatched-but-unfinished jobs are left for the
            // coordinator to reassign.
            let w = writer.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.shutdown(Shutdown::Both);
            drop(w);
            close(true);
        }
    };

    let end = std::thread::scope(|scope| {
        // Heartbeat beacon, independent of job execution.
        scope.spawn(|| {
            let period = Duration::from_millis(opts.heartbeat_interval_ms.max(10));
            'beat: while !stop.load(Ordering::SeqCst) {
                // Sleep in slices so a finished sweep joins promptly.
                let mut slept = Duration::ZERO;
                while slept < period {
                    let slice = Duration::from_millis(20).min(period - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                    if stop.load(Ordering::SeqCst) {
                        break 'beat;
                    }
                }
                if !send(&Frame::Heartbeat) {
                    break;
                }
            }
        });

        // Reader / dispatcher.
        let dispatcher = scope.spawn(|| {
            let mut draining = false;
            // Graceful SIGTERM/rolling-restart drain: announced once, then
            // the worker finishes everything it already accepted and
            // leaves with a final heartbeat instead of dropping the socket
            // (which would cost the coordinator a reassignment + retry-budget
            // slot).
            let mut sig_drain = false;
            let end = loop {
                if killed.load(Ordering::SeqCst) {
                    break ServeEnd::Done;
                }
                let drain_wanted = sim_exec::cancel_requested()
                    || opts
                        .drain_after_jobs
                        .is_some_and(|k| jobs_done.load(Ordering::SeqCst) >= k);
                if drain_wanted && !sig_drain {
                    sig_drain = true;
                    if !send(&Frame::Drain) {
                        break ServeEnd::Lost;
                    }
                }
                if sig_drain && idle() {
                    // Everything accepted has been finished and flushed:
                    // one last liveness beacon, then a clean exit-0
                    // departure.
                    send(&Frame::Heartbeat);
                    break ServeEnd::Done;
                }
                if draining && idle() {
                    break ServeEnd::Done;
                }
                match reader.read_frame() {
                    Ok(Frame::JobDispatch {
                        index,
                        label,
                        payload,
                    }) => {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                        q.push_back((index, label, payload));
                        queue_cond.notify_one();
                    }
                    Ok(Frame::StatsRequest) => {
                        let queued = queue.lock().unwrap_or_else(|e| e.into_inner()).len();
                        send(&Frame::StatsReply {
                            in_flight: in_flight.load(Ordering::SeqCst) as u32,
                            queued: queued as u32,
                            completed: jobs_done.load(Ordering::SeqCst),
                        });
                    }
                    Ok(Frame::Cancel) => {
                        // Stop expecting new work; in-flight jobs drain and
                        // the coordinator follows up with Shutdown.
                    }
                    Ok(Frame::Shutdown) => draining = true,
                    Ok(_) => {} // ignore unexpected chatter
                    Err(FrameError::Timeout) => {}
                    Err(_) => {
                        if killed.load(Ordering::SeqCst) {
                            break ServeEnd::Done;
                        }
                        if draining {
                            // The coordinator already said Shutdown; finish
                            // local work, then exit cleanly.
                            while in_flight.load(Ordering::SeqCst) != 0 {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            break ServeEnd::Done;
                        }
                        break ServeEnd::Lost;
                    }
                }
            };
            close(false);
            end
        });

        // Local pool, on this thread: `pool_width` lanes pulling from the
        // queue until the dispatcher closes it.
        Executor::new(pool_width).pull(next, work, done);
        dispatcher
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });

    summary.jobs_done = jobs_done.load(Ordering::SeqCst);
    summary.bytes_sent += bytes_sent.load(Ordering::SeqCst);
    summary.bytes_received += reader.bytes_read;
    Ok(end)
}

/// Byzantine lie: bump the first ASCII digit of the payload by a
/// salt-dependent non-zero amount, so the result stays well-formed but
/// wrong, and repeated lies produce *different* wrong values.
fn tamper_first_digit(payload: &str, salt: u64) -> String {
    let mut bytes = payload.as_bytes().to_vec();
    if let Some(pos) = bytes.iter().position(|b| b.is_ascii_digit()) {
        let d = bytes[pos] - b'0';
        bytes[pos] = b'0' + ((d + 1 + (salt % 8) as u8) % 10);
    }
    String::from_utf8(bytes).unwrap_or_else(|_| payload.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_for(id: &str) -> WorkerOptions {
        WorkerOptions {
            worker_id: id.to_string(),
            reconnect_base_ms: 100,
            reconnect_max_ms: 5_000,
            ..WorkerOptions::default()
        }
    }

    #[test]
    fn backoff_is_deterministic_per_worker_and_attempt() {
        let a = opts_for("alpha");
        let first: Vec<u64> = (1..=8).map(|n| backoff_ms(&a, n)).collect();
        let second: Vec<u64> = (1..=8).map(|n| backoff_ms(&a, n)).collect();
        assert_eq!(first, second, "same worker+attempt must yield same delay");
    }

    #[test]
    fn backoff_jitter_differs_across_workers() {
        let a = opts_for("alpha");
        let b = opts_for("bravo");
        let sa: Vec<u64> = (1..=8).map(|n| backoff_ms(&a, n)).collect();
        let sb: Vec<u64> = (1..=8).map(|n| backoff_ms(&b, n)).collect();
        assert_ne!(sa, sb, "distinct workers must not share a backoff schedule");
    }

    #[test]
    fn backoff_stays_within_envelope() {
        let a = opts_for("alpha");
        for attempt in 1..=20u32 {
            let exp = a
                .reconnect_base_ms
                .saturating_mul(1u64 << attempt.min(16).saturating_sub(1))
                .min(a.reconnect_max_ms);
            let got = backoff_ms(&a, attempt);
            assert!(got >= exp, "attempt {attempt}: {got} below base {exp}");
            assert!(
                got <= (exp + exp / 2).min(a.reconnect_max_ms),
                "attempt {attempt}: {got} above exp+exp/2 cap"
            );
            assert!(got <= a.reconnect_max_ms);
        }
    }

    #[test]
    fn tamper_changes_value_and_varies_by_salt() {
        let honest = "ipc: 1.234";
        let lie1 = tamper_first_digit(honest, 1);
        let lie2 = tamper_first_digit(honest, 2);
        assert_ne!(lie1, honest);
        assert_ne!(lie2, honest);
        assert_ne!(lie1, lie2, "repeated lies must differ (majority defense)");
        assert_eq!(lie1.len(), honest.len());
    }
}
