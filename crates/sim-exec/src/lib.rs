//! A dependency-free job executor for simulation sweeps.
//!
//! Every figure of the SHM evaluation is a (benchmark × design) cross
//! product of completely independent single-threaded simulations, so the
//! sweep parallelizes perfectly.  This crate provides the one abstraction
//! the whole workspace shares for that: [`Executor::map`], which runs a
//! slice of jobs on a bounded pool of scoped threads and reassembles the
//! results **in submission order**, so parallel output is byte-identical
//! to serial output.
//!
//! Design constraints (and how they are met):
//!
//! * **No registry access** — `std` only: `std::thread::scope` workers
//!   pulling job indices from one shared atomic cursor, and mutexed
//!   per-job result slots.
//! * **Deterministic results** — each worker writes a job's result into
//!   the job's dedicated slot, so the order in which jobs *finish* never
//!   affects the order results are returned.
//! * **Panic isolation** — each job body runs under [`catch`]; a
//!   panicking job yields a [`JobPanic`] carrying its index and payload
//!   instead of poisoning the whole sweep.
//! * **Opt-out** — the pool width is an explicit `--jobs N` style
//!   request, or else [`std::thread::available_parallelism`].  One
//!   worker runs every job serially on the calling thread.
//!
//! [`Executor::map`] and [`Executor::map_cancellable`] are each one call
//! to the same job loop, fed from a shared cursor: cancellation is the
//! cursor's stop check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Process-global cancellation flag, set by the CLI's SIGINT/SIGTERM
/// handler.  An atomic store is all a signal handler may safely do, so the
/// flag lives here and every [`CancelToken`] observes it.
static GLOBAL_CANCEL: AtomicBool = AtomicBool::new(false);

/// Requests cooperative cancellation of every in-progress sweep in the
/// process.  Async-signal-safe: a single atomic store.
pub fn request_cancel() {
    GLOBAL_CANCEL.store(true, Ordering::SeqCst);
}

/// True once [`request_cancel`] has been called.
pub fn cancel_requested() -> bool {
    GLOBAL_CANCEL.load(Ordering::SeqCst)
}

/// Cooperative cancellation handle for [`Executor::map_cancellable`].
///
/// A token trips either locally (via [`CancelToken::cancel`] — e.g. a
/// deterministic `--crash-after-jobs` test knob) or process-wide (via
/// [`request_cancel`] from a signal handler).  Workers observing a tripped
/// token stop *pulling* new jobs; jobs already running drain to completion,
/// so every recorded result is complete and journals stay valid.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    local: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token (still observes the process-global flag).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips this token only (other sweeps in the process are unaffected).
    pub fn cancel(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// True when this token or the process-global flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.local.load(Ordering::SeqCst) || cancel_requested()
    }
}

/// A job that panicked: submission index plus the panic payload rendered
/// as text, so the caller can report the failing (benchmark, design) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the failed job.
    pub index: usize,
    /// Human-readable job description (e.g. `"kmeans under SHM"`), when
    /// the submitting layer supplied one.
    pub label: Option<String>,
    /// Panic payload (`&str`/`String` payloads verbatim, otherwise a
    /// placeholder).
    pub message: String,
}

impl core::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.label {
            Some(label) => write!(
                f,
                "job {} ({}) panicked: {}",
                self.index, label, self.message
            ),
            None => write!(f, "job {} panicked: {}", self.index, self.message),
        }
    }
}

impl std::error::Error for JobPanic {}

/// Per-job outcome: the job's return value, or its captured panic.
pub type JobResult<T> = Result<T, JobPanic>;

/// Runs `f`, turning a panic into its payload rendered as text
/// (`&str`/`String` payloads verbatim, otherwise a placeholder).
///
/// The workspace's one panic capture: the job loop goes through it.
fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Resolves the worker-pool width: `requested` (a CLI `--jobs N`) when
/// positive, otherwise the machine's available parallelism.
fn effective_jobs(requested: Option<usize>) -> usize {
    requested
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `job(index)` for every index below `n` on up to `workers`
/// threads (the calling thread alone, for one) and returns each outcome in
/// its index's slot.
///
/// The job source is one shared cursor: jobs are coarse (milliseconds to
/// seconds), so one atomic increment per job balances load as well as
/// per-worker queues would, and jobs never add jobs, so an exhausted
/// cursor means the sweep is done.  `stop` is checked before each take;
/// slots of jobs it kept from starting come back as `None`.  Each job runs
/// under [`catch`], so a panicking job never stops its thread.
fn run_jobs<T, J, S>(workers: usize, n: usize, stop: S, job: J) -> Vec<Option<JobResult<T>>>
where
    T: Send,
    J: Fn(usize) -> T + Sync,
    S: Fn() -> bool + Sync,
{
    let slots: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Relaxed suffices: the cursor only hands out distinct indices; results
    // travel through the slot mutexes and the scope's join.
    let cursor = AtomicUsize::new(0);
    let worker = || {
        while !stop() {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                break;
            }
            let outcome = catch(|| job(index)).map_err(|message| JobPanic {
                index,
                label: None,
                message,
            });
            *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        }
    };
    let workers = workers.min(n);
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// A bounded thread pool for independent jobs.
///
/// The executor is stateless between calls: every [`Executor::map`] spawns
/// a fresh scope of workers and joins them before returning, so there is
/// no background machinery to shut down and no `'static` bound on jobs.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// Pool width from an explicit request, falling back to the machine's
    /// available parallelism for `None` (or zero).
    pub fn from_request(requested: Option<usize>) -> Self {
        Self::new(effective_jobs(requested))
    }

    /// Runs `work(index, &items[index])` for every item and returns the
    /// per-job outcomes in submission order.
    ///
    /// Idle workers take the next unstarted job, so a slow benchmark never
    /// holds up the rest of the sweep.  With one worker (or one item)
    /// everything runs on the calling thread — the panic capture and result
    /// shape are identical, so `--jobs 1` output is the reference the
    /// parallel path must reproduce byte-for-byte.
    pub fn map<I, T, F>(&self, items: &[I], work: F) -> Vec<JobResult<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        run_jobs(self.jobs, items.len(), || false, |i| work(i, &items[i]))
            .into_iter()
            .map(|slot| slot.expect("nothing stops a plain map"))
            .collect()
    }

    /// Like [`map`](Executor::map), but drains instead of finishing when
    /// `token` trips: workers stop *pulling* new jobs once
    /// [`CancelToken::is_cancelled`] turns true, while jobs already running
    /// complete normally.  Jobs never started come back as `None`, in
    /// submission order — the caller can tell exactly which results exist.
    ///
    /// This is the graceful-shutdown primitive: Ctrl-C trips the global
    /// flag, in-flight simulations drain, their results land in the job
    /// journal, and the process exits with a valid journal for `--resume`.
    pub fn map_cancellable<I, T, F>(
        &self,
        items: &[I],
        token: &CancelToken,
        work: F,
    ) -> Vec<Option<JobResult<T>>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        run_jobs(
            self.jobs,
            items.len(),
            || token.is_cancelled(),
            |i| work(i, &items[i]),
        )
    }

    /// Like [`map`](Executor::map), but turns any captured panic into an
    /// error labelled via `label` (e.g. the failing `(benchmark, design)`
    /// pair) while still returning every successful result.
    ///
    /// # Errors
    ///
    /// Returns a [`SweepError`] listing every panicked job when at least
    /// one job panicked.
    pub fn try_map<I, T, F, L>(&self, items: &[I], label: L, work: F) -> Result<Vec<T>, SweepError>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        L: Fn(usize, &I) -> String,
    {
        let mut ok = Vec::with_capacity(items.len());
        let mut failed = Vec::new();
        for (i, outcome) in self.map(items, work).into_iter().enumerate() {
            match outcome {
                Ok(v) => ok.push(v),
                Err(mut p) => {
                    let l = label(i, &items[i]);
                    p.label = Some(l.clone());
                    failed.push(LabelledPanic { label: l, panic: p });
                }
            }
        }
        if failed.is_empty() {
            Ok(ok)
        } else {
            Err(SweepError { failed })
        }
    }
}

/// A captured panic together with the caller's human-readable job label.
#[derive(Clone, Debug)]
pub struct LabelledPanic {
    /// Caller-supplied job description, e.g. `"fdtd2d under SHM"`.
    pub label: String,
    /// The captured panic.
    pub panic: JobPanic,
}

/// One or more jobs of a sweep panicked; the rest completed normally.
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Every failed job, in submission order.
    pub failed: Vec<LabelledPanic>,
}

impl core::fmt::Display for SweepError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} job(s) panicked:", self.failed.len())?;
        for lp in &self.failed {
            write!(f, " [{}: {}]", lp.label, lp.panic.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for SweepError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};
    use std::time::{Duration, Instant};

    /// Wall-clock limit for any threaded test below: a hung executor fails
    /// the test in seconds instead of stalling the whole `cargo test` run.
    const DEADLINE: Duration = Duration::from_secs(10);

    /// Runs `body` on a helper thread and fails with "executor hung" when
    /// it has not returned within `limit`.  The helper is detached, so a
    /// hung body is leaked rather than joined; its panics propagate.
    fn within<R: Send + 'static>(limit: Duration, body: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, finished) = mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            let out = body();
            let _ = done.send(());
            out
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
            panic!("executor hung: no result within {limit:?}");
        }
        helper
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    #[test]
    fn map_survives_thousands_of_rounds_without_hanging() {
        // Mixed shapes that end every round with all workers idle at once:
        // a barrier round (every worker holds one job until all have one),
        // then a round of zero-cost jobs.  A worker that holds one lock
        // while waiting for another deadlocks here within a second.
        const BUDGET: Duration = Duration::from_secs(2);
        let rounds = within(BUDGET + Duration::from_secs(5), || {
            let start = Instant::now();
            let mut rounds = 0u64;
            while start.elapsed() < BUDGET {
                for jobs in [2, 3, 4, 8] {
                    let exec = Executor::new(jobs);
                    let barrier = Barrier::new(jobs);
                    let items: Vec<usize> = (0..jobs).collect();
                    let out = exec.map(&items, |_, &x| {
                        barrier.wait();
                        x
                    });
                    assert!(out.into_iter().map(|r| r.expect("no panic")).eq(0..jobs));
                    let items: Vec<usize> = (0..2 * jobs).collect();
                    let out = exec.map(&items, |_, &x| x);
                    assert!(out
                        .into_iter()
                        .map(|r| r.expect("no panic"))
                        .eq(0..2 * jobs));
                    rounds += 1;
                }
            }
            rounds
        });
        assert!(rounds >= 4, "only {rounds} rounds ran");
    }

    #[test]
    fn results_come_back_in_submission_order() {
        within(DEADLINE, || {
            let items: Vec<u64> = (0..100).collect();
            for jobs in [1, 2, 7] {
                let out = Executor::new(jobs).map(&items, |i, &x| {
                    // Make later jobs finish earlier to stress reassembly.
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    x * 2
                });
                let vals: Vec<u64> = out.into_iter().map(|r| r.expect("no panic")).collect();
                assert_eq!(vals, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn parallel_equals_serial() {
        within(DEADLINE, || {
            let items: Vec<u64> = (0..64).collect();
            let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
            let serial = Executor::new(1).map(&items, f);
            let parallel = Executor::new(8).map(&items, f);
            assert_eq!(serial, parallel);
        });
    }

    #[test]
    fn panics_are_captured_per_job() {
        within(DEADLINE, || {
            let items: Vec<u32> = (0..10).collect();
            let out = Executor::new(4).map(&items, |_, &x| {
                if x == 3 {
                    panic!("boom at {x}");
                }
                x + 1
            });
            for (i, r) in out.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().expect_err("job 3 must fail");
                    assert_eq!(p.index, 3);
                    assert!(p.message.contains("boom at 3"), "got {:?}", p.message);
                } else {
                    assert_eq!(*r.as_ref().expect("other jobs unaffected"), i as u32 + 1);
                }
            }
        });
    }

    #[test]
    fn try_map_labels_failures() {
        within(DEADLINE, || {
            let items = ["alpha", "beta", "gamma"];
            let err = Executor::new(2)
                .try_map(
                    &items,
                    |_, name| format!("job/{name}"),
                    |_, &name| {
                        if name == "beta" {
                            panic!("bad {name}");
                        }
                        name.len()
                    },
                )
                .expect_err("beta fails");
            assert_eq!(err.failed.len(), 1);
            assert_eq!(err.failed[0].label, "job/beta");
            assert!(err.to_string().contains("job/beta"));
        });
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        within(DEADLINE, || {
            let counter = AtomicUsize::new(0);
            let items: Vec<usize> = (0..333).collect();
            let out = Executor::new(5).map(&items, |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(out.len(), 333);
            assert_eq!(counter.load(Ordering::Relaxed), 333);
        });
    }

    #[test]
    fn map_runs_on_at_most_width_threads_and_captures_panics() {
        within(DEADLINE, || {
            for width in [1, 3] {
                let items: Vec<u32> = (0..60).collect();
                let threads = Mutex::new(std::collections::HashSet::new());
                let out = Executor::new(width).map(&items, |_, &x| {
                    threads.lock().unwrap().insert(std::thread::current().id());
                    // Hold each job briefly so every thread gets some.
                    std::thread::sleep(Duration::from_millis(1));
                    if x % 20 == 7 {
                        panic!("job {x} failed");
                    }
                    x * 2
                });
                assert_eq!(out.len(), items.len(), "every job has an outcome");
                let mut ok = 0;
                let mut failed = Vec::new();
                for (&x, outcome) in items.iter().zip(out) {
                    match outcome {
                        Ok(v) => {
                            assert_eq!(v, x * 2);
                            ok += 1;
                        }
                        Err(p) => failed.push(p.message),
                    }
                }
                assert_eq!(ok, 57);
                failed.sort();
                assert_eq!(failed, ["job 27 failed", "job 47 failed", "job 7 failed"]);
                let threads = threads.into_inner().unwrap();
                assert!(
                    (1..=width).contains(&threads.len()),
                    "{} threads ran jobs at width {width}",
                    threads.len()
                );
                if width == 1 {
                    assert!(threads.contains(&std::thread::current().id()));
                }
            }
        });
    }

    #[test]
    fn catch_renders_every_payload_kind() {
        assert_eq!(catch(|| 5), Ok(5));
        assert_eq!(catch(|| -> u8 { panic!("static") }), Err("static".into()));
        assert_eq!(
            catch(|| -> u8 { panic!("formatted {}", 1) }),
            Err("formatted 1".into())
        );
        assert_eq!(
            catch(|| -> u8 { std::panic::panic_any(7u32) }),
            Err("non-string panic payload".into())
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<JobResult<u8>> = Executor::new(4).map(&[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn job_panic_display_includes_label_when_known() {
        let bare = JobPanic {
            index: 4,
            label: None,
            message: "boom".into(),
        };
        assert_eq!(bare.to_string(), "job 4 panicked: boom");
        let labelled = JobPanic {
            index: 4,
            label: Some("kmeans under SHM".into()),
            message: "boom".into(),
        };
        assert_eq!(
            labelled.to_string(),
            "job 4 (kmeans under SHM) panicked: boom"
        );
    }

    #[test]
    fn try_map_attaches_label_to_the_panic_itself() {
        within(DEADLINE, || {
            let items = ["alpha", "beta"];
            let err = Executor::new(2)
                .try_map(
                    &items,
                    |_, name| format!("job/{name}"),
                    |_, &name| {
                        if name == "beta" {
                            panic!("bad");
                        }
                        1
                    },
                )
                .expect_err("beta fails");
            assert!(
                err.failed[0].panic.to_string().contains("(job/beta)"),
                "{}",
                err.failed[0].panic
            );
        });
    }

    /// Serializes tests that read or write the process-global cancel flag —
    /// `cargo test` runs tests on concurrent threads in one process.
    static CANCEL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn map_cancellable_without_cancel_matches_map() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        within(DEADLINE, || {
            let items: Vec<u64> = (0..40).collect();
            let token = CancelToken::new();
            let out = Executor::new(4).map_cancellable(&items, &token, |_, &x| x + 1);
            let vals: Vec<u64> = out
                .into_iter()
                .map(|o| o.expect("all ran").expect("no panic"))
                .collect();
            assert_eq!(vals, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        });
    }

    #[test]
    fn map_cancellable_serial_stops_pulling_after_cancel() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..10).collect();
        let token = CancelToken::new();
        let out = Executor::new(1).map_cancellable(&items, &token, |i, &x| {
            if i == 3 {
                token.cancel();
            }
            x * 2
        });
        // The cancelling job itself drains; nothing after it starts.
        for (i, o) in out.iter().enumerate() {
            if i <= 3 {
                assert_eq!(
                    *o.as_ref().expect("ran").as_ref().expect("ok"),
                    items[i] * 2
                );
            } else {
                assert!(o.is_none(), "job {i} ran after cancel");
            }
        }
    }

    #[test]
    fn map_cancellable_parallel_drains_in_flight_jobs() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        within(DEADLINE, || {
            let items: Vec<u64> = (0..64).collect();
            let token = CancelToken::new();
            let started = AtomicUsize::new(0);
            let out = Executor::new(4).map_cancellable(&items, &token, |i, &x| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    token.cancel();
                }
                std::thread::yield_now();
                x
            });
            let ran = out.iter().filter(|o| o.is_some()).count();
            // Every slot that ran holds a complete result (drained, not
            // torn), and cancellation kept at least some of the 64 jobs
            // from starting.
            assert_eq!(ran, started.load(Ordering::SeqCst));
            assert!(ran >= 1);
            assert!(ran < items.len(), "cancel had no effect");
            for (o, &x) in out.iter().zip(&items) {
                if let Some(r) = o {
                    assert_eq!(*r.as_ref().expect("ok"), x);
                }
            }
        });
    }

    #[test]
    fn cancel_token_observes_global_flag() {
        let _guard = CANCEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        request_cancel();
        assert!(token.is_cancelled(), "global flag must trip local tokens");
        GLOBAL_CANCEL.store(false, Ordering::SeqCst);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn effective_jobs_priority() {
        // Explicit request wins over everything.
        assert_eq!(effective_jobs(Some(3)), 3);
        // Zero request falls through to auto, which is at least 1.
        assert!(effective_jobs(Some(0)) >= 1);
        assert!(effective_jobs(None) >= 1);
    }
}
