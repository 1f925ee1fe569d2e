//! Distributed sweep backend: a dependency-free TCP coordinator/worker
//! cluster that runs any existing sweep across processes or hosts while
//! preserving `sim-exec`'s contract.
//!
//! The contract being preserved, concretely:
//!
//! * **Submission-order determinism** — results come back indexed by
//!   submission order regardless of which worker ran what, so a
//!   distributed sweep renders byte-identical tables to `--jobs 1`.
//! * **Per-job panic capture** — a job that panics on a worker resolves
//!   to a [`sim_exec::JobPanic`] carrying the `"{benchmark} under
//!   {design}"` label, exactly like the local pool.
//! * **Cooperative cancellation** — a tripped [`sim_exec::CancelToken`]
//!   stops dispatch, drains in-flight jobs, and reports partial results,
//!   so `--journal --resume` composes with `--dist`.
//! * **Fault tolerance** — dead workers (missed heartbeats or dropped
//!   connections) have their in-flight jobs reassigned, and a panicked job
//!   is retried once; each re-dispatch spends one slot of a bounded
//!   sweep-wide retry budget.
//!
//! Layering: this crate moves opaque `(label, payload)` strings; the
//! job encodings (which benchmark, how many events, which design) belong
//! to the submitting layer (`shm-bench`), keeping the cluster machinery
//! generic.  [`conn`] is the connection core (accept loop and both halves
//! of the hello) that the coordinator, the worker and the chaos proxy
//! share.  See `docs/DISTRIBUTED.md` for the wire format and failure
//! semantics.

pub mod chaos;
pub mod conn;
mod coordinator;
pub mod protocol;
mod worker;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, PartitionWindow};
pub use coordinator::{Coordinator, DistJob, DistOptions, DistReport, JobTiming};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};

/// Environment variable: number of loopback workers a `--dist` sweep
/// spawns in-process (handy for single-machine clusters and CI smoke).
pub const DIST_WORKERS_ENV: &str = "SHM_DIST_WORKERS";

/// Environment variable: coordinator-side heartbeat miss window in
/// milliseconds — a worker silent for longer is declared dead and its
/// in-flight jobs reassigned.
pub const HEARTBEAT_TIMEOUT_ENV: &str = "SHM_HEARTBEAT_TIMEOUT_MS";

/// Environment variable: worker-side heartbeat send interval in
/// milliseconds.  Must comfortably undercut the coordinator's miss
/// window (the defaults keep a 10x margin).
pub const HEARTBEAT_INTERVAL_ENV: &str = "SHM_HEARTBEAT_MS";

/// Environment variable: consecutive failed (re)connect attempts a worker
/// tolerates before giving up.  Raise it when workers must outlive a
/// coordinator restart (a `--resume` from the job journal).
pub const RECONNECT_ATTEMPTS_ENV: &str = "SHM_RECONNECT_ATTEMPTS";

/// SplitMix64 mix — the crate's seeded randomness source (reconnect
/// jitter, audit sampling, chaos fault rolls).  Pure, so every consumer
/// is reproducible from its seed.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parse a positive integer from the environment, ignoring unset,
/// empty, or malformed values (observability knobs must never turn a
/// typo into a sweep failure).
pub(crate) fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    trimmed.parse::<u64>().ok().filter(|&v| v > 0)
}

/// Per-worker accounting reported by the coordinator (and mirrored into
/// the flight recorder as `dist_worker` telemetry events).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker-chosen identity from its hello frame.
    pub id: String,
    /// Jobs whose results this worker delivered.
    pub jobs_done: u64,
    /// Wire bytes of job dispatches sent to this worker.
    pub bytes_sent: u64,
    /// Wire bytes of result payloads received from this worker.
    pub bytes_received: u64,
    /// In-flight jobs taken back from this worker when it died.
    pub reassigned: u64,
    /// True when the coordinator quarantined this worker for byzantine
    /// behaviour (digest mismatch or audit contradiction).
    pub quarantined: bool,
}

impl WorkerStats {
    pub fn new(id: &str) -> Self {
        Self {
            id: id.to_string(),
            ..Self::default()
        }
    }
}

/// Why a distributed run (coordinator or worker side) failed.
#[derive(Debug)]
pub enum DistError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// No worker completed a handshake within the connect window — the
    /// signal for callers to fall back to local execution.
    NoWorkers,
    /// The coordinator refused our hello (version or config-hash
    /// mismatch); permanent, never retried.
    Rejected { reason: String },
    /// Could not (re)connect within the backoff budget.
    Unreachable {
        addr: String,
        attempts: u32,
        last_error: String,
    },
    /// The peer violated the frame protocol.
    Protocol(String),
}

impl core::fmt::Display for DistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "i/o error: {e}"),
            DistError::NoWorkers => {
                write!(
                    f,
                    "no worker completed a handshake within the connect window"
                )
            }
            DistError::Rejected { reason } => write!(f, "coordinator rejected hello: {reason}"),
            DistError::Unreachable {
                addr,
                attempts,
                last_error,
            } => write!(
                f,
                "coordinator {addr} unreachable after {attempts} attempts: {last_error}"
            ),
            DistError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_exec::CancelToken;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    fn echo_jobs(n: usize) -> Vec<DistJob> {
        (0..n)
            .map(|i| DistJob {
                label: format!("job-{i}"),
                payload: format!("payload-{i}"),
            })
            .collect()
    }

    fn quick_opts() -> DistOptions {
        DistOptions {
            connect_wait_ms: 2_000,
            heartbeat_timeout_ms: 2_000,
            read_timeout_ms: 20,
            retry_budget: 16,
            ..DistOptions::default()
        }
    }

    fn worker_opts(id: &str) -> WorkerOptions {
        WorkerOptions {
            worker_id: id.into(),
            jobs: Some(2),
            heartbeat_interval_ms: 50,
            read_timeout_ms: 20,
            reconnect_base_ms: 20,
            reconnect_max_ms: 100,
            max_reconnect_attempts: 5,
            ..WorkerOptions::default()
        }
    }

    fn spawn_worker(
        addr: String,
        hash: u64,
        opts: WorkerOptions,
    ) -> std::thread::JoinHandle<Result<WorkerSummary, DistError>> {
        std::thread::spawn(move || {
            run_worker(&addr, hash, opts, |label, payload| {
                format!("{label}:{payload}:ok")
            })
        })
    }

    /// Two-worker rendezvous: bit `0b01` or `0b10` is set once that worker
    /// is serving a job.
    type Gate = Arc<(Mutex<u8>, Condvar)>;

    /// Marks worker `me` as serving a job and holds until the other worker
    /// is too, so neither can finish the sweep alone before the other has
    /// connected.  Capped at 10 s: a worker that never connects fails the
    /// test's assertions instead of hanging it.
    fn hold_until_both_serving(gate: &Gate, me: u8) {
        let (seen, cv) = &**gate;
        let mut seen = seen.lock().unwrap_or_else(|e| e.into_inner());
        *seen |= me;
        cv.notify_all();
        let _ = cv.wait_timeout_while(seen, Duration::from_secs(10), |s| *s != 0b11);
    }

    /// [`spawn_worker`] for worker `me` of a pair gated on each other.
    fn spawn_gated_worker(
        addr: String,
        hash: u64,
        opts: WorkerOptions,
        gate: &Gate,
        me: u8,
    ) -> std::thread::JoinHandle<Result<WorkerSummary, DistError>> {
        let gate = Arc::clone(gate);
        std::thread::spawn(move || {
            run_worker(&addr, hash, opts, move |label, payload| {
                hold_until_both_serving(&gate, me);
                format!("{label}:{payload}:ok")
            })
        })
    }

    #[test]
    fn two_workers_preserve_submission_order() {
        let coord = Coordinator::bind("127.0.0.1:0", 0xABCD, quick_opts()).unwrap();
        let addr = coord.local_addr().to_string();
        let gate = Gate::default();
        let w1 = spawn_gated_worker(addr.clone(), 0xABCD, worker_opts("w1"), &gate, 0b01);
        let w2 = spawn_gated_worker(addr, 0xABCD, worker_opts("w2"), &gate, 0b10);

        let report = coord.run(echo_jobs(24), &CancelToken::new()).unwrap();
        assert!(report.is_clean());
        for (i, r) in report.results.iter().enumerate() {
            let got = r.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(got, &format!("job-{i}:payload-{i}:ok"));
        }
        let total: u64 = report.workers.iter().map(|w| w.jobs_done).sum();
        assert_eq!(total, 24);
        assert!(w1.join().unwrap().is_ok());
        assert!(w2.join().unwrap().is_ok());
    }

    #[test]
    fn killed_worker_jobs_are_reassigned() {
        let coord = Coordinator::bind("127.0.0.1:0", 0x5117, quick_opts()).unwrap();
        let addr = coord.local_addr().to_string();
        let mut dying = worker_opts("doomed");
        dying.disconnect_after_jobs = Some(2);
        // Jobs must take real time so the queue is non-empty when the
        // doomed worker dies with dispatched work in flight.
        let slow = |label: &str, payload: &str| {
            std::thread::sleep(Duration::from_millis(25));
            format!("{label}:{payload}:ok")
        };
        let (a1, a2) = (addr.clone(), addr);
        let w1 = std::thread::spawn(move || run_worker(&a1, 0x5117, dying, slow));
        let w2 = std::thread::spawn(move || run_worker(&a2, 0x5117, worker_opts("survivor"), slow));

        let report = coord.run(echo_jobs(16), &CancelToken::new()).unwrap();
        assert!(report.is_clean(), "all jobs must finish: {report:?}");
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_ref().unwrap(),
                &format!("job-{i}:payload-{i}:ok")
            );
        }
        assert!(
            report.reassignments >= 1,
            "the killed worker held dispatched jobs: {report:?}"
        );
        let _ = w1.join().unwrap();
        assert!(w2.join().unwrap().is_ok());
    }

    #[test]
    fn config_hash_mismatch_is_rejected_at_hello() {
        let coord = Coordinator::bind("127.0.0.1:0", 0xAAAA, quick_opts()).unwrap();
        let addr = coord.local_addr().to_string();
        // The coordinator only accepts while `run` is live, so drive it on
        // a background thread while we interrogate the workers.
        let run = std::thread::spawn(move || coord.run(echo_jobs(4), &CancelToken::new()));

        let bad = spawn_worker(addr.clone(), 0xBBBB, worker_opts("stale"));
        let err = bad
            .join()
            .unwrap()
            .expect_err("mismatched hash must be rejected");
        match err {
            DistError::Rejected { reason } => {
                assert!(reason.contains("config hash mismatch"), "reason: {reason}")
            }
            other => panic!("expected Rejected, got {other}"),
        }

        // A correctly-configured worker still completes the sweep.
        let good = spawn_worker(addr, 0xAAAA, worker_opts("fresh"));
        let report = run.join().unwrap().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.workers.len(), 1, "rejected worker never registers");
        assert!(good.join().unwrap().is_ok());
    }

    /// Opens a raw connection to `addr`, sends `first`, and returns the
    /// refusal reason the server answers with.
    fn refusal(addr: &str, first: &protocol::Frame) -> String {
        use protocol::{write_frame, Frame, FrameError};
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let (mut reader, mut writer) = conn::split(stream, Duration::from_millis(50)).unwrap();
        write_frame(&mut writer, first).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match reader.read_frame() {
                Ok(Frame::HelloAck {
                    accepted: false,
                    reason,
                }) => return reason,
                Ok(other) => panic!("expected a refusal, got {other:?}"),
                Err(FrameError::Timeout) if std::time::Instant::now() < deadline => {}
                Err(e) => panic!("no refusal from {addr}: {e}"),
            }
        }
    }

    #[test]
    fn coordinator_refuses_a_bad_opening() {
        use protocol::Frame;
        const HASH: u64 = 0xC0DE;
        let opts = DistOptions {
            connect_wait_ms: 30_000,
            ..quick_opts()
        };
        let coord = Coordinator::bind("127.0.0.1:0", HASH, opts).unwrap();
        let addr = coord.local_addr().to_string();
        let stop = CancelToken::new();
        let run = {
            let t = stop.clone();
            std::thread::spawn(move || coord.run(echo_jobs(1), &t))
        };

        let stale = Frame::Hello {
            version: 6,
            config_hash: HASH,
            worker_id: "stale".into(),
            window: 1,
        };
        assert_eq!(
            refusal(&addr, &stale),
            "protocol version mismatch: expected 5, got 6"
        );
        assert_eq!(refusal(&addr, &Frame::Heartbeat), "expected hello");

        stop.cancel();
        let report = run.join().unwrap().unwrap();
        assert!(report.workers.is_empty(), "refused peers never register");
    }

    #[test]
    fn job_panic_carries_label_and_retries_once() {
        let coord = Coordinator::bind("127.0.0.1:0", 7, quick_opts()).unwrap();
        let addr = coord.local_addr().to_string();
        let attempts = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&attempts);
        let w = std::thread::spawn(move || {
            run_worker(&addr, 7, worker_opts("w"), move |label, payload| {
                if label == "job-1" {
                    seen.fetch_add(1, Ordering::SeqCst);
                    panic!("injected failure in {label}");
                }
                payload.to_string()
            })
        });
        let report = coord.run(echo_jobs(3), &CancelToken::new()).unwrap();
        let failed = report.results[1].as_ref().unwrap().as_ref().unwrap_err();
        assert_eq!(failed.label.as_deref(), Some("job-1"));
        assert!(failed.message.contains("injected failure"));
        assert!(report.results[0].as_ref().unwrap().is_ok());
        assert!(report.results[2].as_ref().unwrap().is_ok());
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "a panicked job is retried once within budget"
        );
        assert!(w.join().unwrap().is_ok());
    }

    #[test]
    fn no_workers_reports_degraded_signal() {
        let mut opts = quick_opts();
        opts.connect_wait_ms = 100;
        let coord = Coordinator::bind("127.0.0.1:0", 1, opts).unwrap();
        match coord.run(echo_jobs(2), &CancelToken::new()) {
            Err(DistError::NoWorkers) => {}
            other => panic!("expected NoWorkers, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_drains_in_flight_and_reports_partial() {
        let coord = Coordinator::bind("127.0.0.1:0", 9, quick_opts()).unwrap();
        let addr = coord.local_addr().to_string();
        let token = CancelToken::new();
        let trip = token.clone();
        let w = std::thread::spawn(move || {
            run_worker(&addr, 9, worker_opts("slow"), move |_, payload| {
                // Trip cancellation from inside the first job, then let it
                // finish: drained in-flight results must be recorded.
                trip.cancel();
                std::thread::sleep(Duration::from_millis(50));
                payload.to_string()
            })
        });
        let report = coord
            .run(echo_jobs(32), &token)
            .unwrap_or_else(|e| panic!("cancelled run still returns a report: {e}"));
        assert!(report.interrupted);
        assert_eq!(report.results.len(), 32);
        assert!(
            report.results.iter().any(|r| r.is_none()),
            "cancellation must leave undispatched jobs unresolved"
        );
        for r in report.results.iter().flatten() {
            assert!(r.is_ok(), "drained in-flight jobs resolve cleanly: {r:?}");
        }
        assert!(w.join().unwrap().is_ok());
    }

    #[test]
    fn bad_digest_worker_is_quarantined_and_jobs_rerun() {
        let mut opts = quick_opts();
        opts.retry_budget = 64;
        let coord = Coordinator::bind("127.0.0.1:0", 0xD16E, opts).unwrap();
        let addr = coord.local_addr().to_string();
        let mut liar = worker_opts("bad-digest");
        liar.byzantine_bad_digest_every = Some(2);
        let honest = worker_opts("honest");
        let gate = Gate::default();
        let w1 = spawn_gated_worker(addr.clone(), 0xD16E, liar, &gate, 0b01);
        let w2 = spawn_gated_worker(addr, 0xD16E, honest, &gate, 0b10);

        let report = coord.run(echo_jobs(16), &CancelToken::new()).unwrap();
        assert!(
            report.is_clean(),
            "all jobs must re-run cleanly: {report:?}"
        );
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_ref().unwrap(),
                &format!("job-{i}:payload-{i}:ok")
            );
        }
        assert!(report.digest_mismatches >= 1, "{report:?}");
        assert_eq!(report.quarantines, 1, "{report:?}");
        assert!(
            report
                .workers
                .iter()
                .any(|w| w.id == "bad-digest" && w.quarantined),
            "{report:?}"
        );
        let _ = w1.join().unwrap();
        assert!(w2.join().unwrap().is_ok());
    }

    #[test]
    fn lying_worker_is_caught_by_full_audit() {
        let mut opts = quick_opts();
        opts.retry_budget = 128;
        opts.audit_per_mille = 1000;
        opts.audit_seed = 7;
        let coord = Coordinator::bind("127.0.0.1:0", 0x11E5, opts).unwrap();
        let addr = coord.local_addr().to_string();
        // Lies on every job, with valid frames and valid digests — only
        // the redundant-dispatch audit can catch it.
        let mut liar = worker_opts("liar");
        liar.byzantine_lie_every = Some(1);
        let honest = worker_opts("honest");
        // Both handlers hold their results until both workers are serving
        // a job, so the honest worker cannot settle the whole sweep on its
        // own before the liar connects.
        let gate = Gate::default();
        let echo = |me: u8| {
            let gate = Arc::clone(&gate);
            move |label: &str, payload: &str| {
                hold_until_both_serving(&gate, me);
                format!("{label}:{payload}:7")
            }
        };
        let (a1, a2) = (addr.clone(), addr);
        let (liar_echo, honest_echo) = (echo(0b01), echo(0b10));
        let w1 = std::thread::spawn(move || run_worker(&a1, 0x11E5, liar, liar_echo));
        let w2 = std::thread::spawn(move || run_worker(&a2, 0x11E5, honest, honest_echo));

        let report = coord.run(echo_jobs(12), &CancelToken::new()).unwrap();
        assert!(
            report.is_clean(),
            "every job must settle on the honest answer: {report:?}"
        );
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_ref().unwrap(),
                &format!("job-{i}:payload-{i}:7"),
                "tampered result must never win"
            );
        }
        assert_eq!(report.digest_mismatches, 0, "the liar's digests are valid");
        assert!(report.audit_mismatches >= 1, "{report:?}");
        assert!(
            report
                .workers
                .iter()
                .any(|w| w.id == "liar" && w.quarantined),
            "{report:?}"
        );
        let _ = w1.join().unwrap();
        assert!(w2.join().unwrap().is_ok());
    }

    #[test]
    fn honest_cluster_settles_audited_jobs_without_quarantines() {
        let mut opts = quick_opts();
        opts.audit_per_mille = 500;
        opts.audit_seed = 42;
        let coord = Coordinator::bind("127.0.0.1:0", 0xA0D1, opts).unwrap();
        let addr = coord.local_addr().to_string();
        let gate = Gate::default();
        let w1 = spawn_gated_worker(addr.clone(), 0xA0D1, worker_opts("w1"), &gate, 0b01);
        let w2 = spawn_gated_worker(addr, 0xA0D1, worker_opts("w2"), &gate, 0b10);

        let report = coord.run(echo_jobs(20), &CancelToken::new()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_ref().unwrap(),
                &format!("job-{i}:payload-{i}:ok")
            );
        }
        assert_eq!(report.quarantines, 0);
        assert_eq!(report.audit_mismatches, 0);
        assert_eq!(report.digest_mismatches, 0);
        assert!(w1.join().unwrap().is_ok());
        assert!(w2.join().unwrap().is_ok());
    }

    #[test]
    fn stray_job_result_quarantines_sender_instead_of_crashing() {
        use protocol::{payload_digest, write_frame, Frame, FrameReader, PROTOCOL_VERSION};
        let mut opts = quick_opts();
        opts.retry_budget = 64;
        let coord = Coordinator::bind("127.0.0.1:0", 0x57A1, opts).unwrap();
        let addr = coord.local_addr().to_string();
        let run = {
            let token = CancelToken::new();
            std::thread::spawn(move || coord.run(echo_jobs(6), &token))
        };

        // A byzantine client completes a valid handshake, then reports a
        // result for a job index that cannot exist.  The coordinator must
        // quarantine it — not index-panic, not silently accept.
        let stray = std::net::TcpStream::connect(&addr).unwrap();
        stray
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut w = stray.try_clone().unwrap();
        write_frame(
            &mut w,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                config_hash: 0x57A1,
                worker_id: "stray".into(),
                window: 1,
            },
        )
        .unwrap();
        let mut reader = FrameReader::new(stray.try_clone().unwrap());
        loop {
            match reader.read_frame() {
                Ok(Frame::HelloAck { accepted, .. }) => {
                    assert!(accepted, "valid handshake must be accepted");
                    break;
                }
                Ok(other) => panic!("expected hello ack, got {other:?}"),
                Err(protocol::FrameError::Timeout) => continue,
                Err(e) => panic!("handshake failed: {e}"),
            }
        }
        write_frame(
            &mut w,
            &Frame::JobResult {
                index: 999_999,
                payload: "forged".into(),
                run_ns: 1,
                digest: payload_digest(b"forged"),
            },
        )
        .unwrap();
        // The verdict comes back as a Shutdown before the link severs.
        let mut shut_down = false;
        for _ in 0..100 {
            match reader.read_frame() {
                Ok(Frame::Shutdown) => {
                    shut_down = true;
                    break;
                }
                Ok(_) => continue,
                Err(protocol::FrameError::Timeout) => continue,
                Err(_) => break,
            }
        }
        assert!(shut_down, "quarantined sender must be told to shut down");

        // An honest worker still completes the whole sweep.
        let honest = spawn_worker(addr, 0x57A1, worker_opts("honest"));
        let report = run.join().unwrap().unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert!(report.quarantines >= 1, "{report:?}");
        assert!(
            report
                .workers
                .iter()
                .any(|w| w.id == "stray" && w.quarantined),
            "{report:?}"
        );
        assert!(honest.join().unwrap().is_ok());
    }

    #[test]
    fn graceful_drain_departure_costs_no_retry_budget() {
        let mut opts = quick_opts();
        opts.retry_budget = 64;
        let coord = Coordinator::bind("127.0.0.1:0", 0xD8A1, opts).unwrap();
        let addr = coord.local_addr().to_string();
        let mut leaver = worker_opts("leaver");
        // Announce a graceful drain after two results — the rolling-restart
        // path a SIGTERM takes — instead of dropping the socket.
        leaver.drain_after_jobs = Some(2);
        let slow = |label: &str, payload: &str| {
            std::thread::sleep(Duration::from_millis(15));
            format!("{label}:{payload}:ok")
        };
        let (a1, a2) = (addr.clone(), addr);
        let w1 = std::thread::spawn(move || run_worker(&a1, 0xD8A1, leaver, slow));
        let w2 = std::thread::spawn(move || run_worker(&a2, 0xD8A1, worker_opts("stayer"), slow));

        let report = coord.run(echo_jobs(16), &CancelToken::new()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap().as_ref().unwrap(),
                &format!("job-{i}:payload-{i}:ok")
            );
        }
        assert_eq!(
            report.retries_used, 0,
            "an announced departure must not burn retry budget: {report:?}"
        );
        assert_eq!(
            report.reassignments, 0,
            "an announced departure is not a reassignment: {report:?}"
        );
        let leaver_summary = w1.join().unwrap().expect("drain is a clean exit");
        assert!(leaver_summary.jobs_done >= 2);
        assert!(w2.join().unwrap().is_ok());
    }

    #[test]
    fn unreachable_coordinator_exhausts_backoff() {
        // Bind then drop a listener so the port is (very likely) closed.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut opts = worker_opts("lonely");
        opts.max_reconnect_attempts = 2;
        opts.reconnect_base_ms = 10;
        let err = run_worker(&format!("127.0.0.1:{port}"), 0, opts, |_, p| p.to_string())
            .expect_err("nobody is listening");
        match err {
            DistError::Unreachable { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected Unreachable, got {other}"),
        }
    }
}
