//! `shm serve`: a long-running, fault-tolerant, multi-tenant simulation
//! daemon over the sim-dist frame protocol (v4 service frames).
//!
//! Tenants connect over TCP, complete the same versioned
//! [`Frame::Hello`] handshake workers use (version + config-hash checked,
//! quarantined identities refused), then pipeline
//! [`Frame::SubmitSweep`] requests.  The daemon multiplexes every
//! tenant's jobs onto one local execution pool with **deficit
//! round-robin** fair scheduling, streams one seq/ts_ms-tagged
//! [`Frame::JobProgress`] per finished job, and terminates each request
//! with a digest-protected [`Frame::SweepResult`].
//!
//! The robustness surface:
//!
//! * **Admission control** — per-tenant job queues are bounded
//!   ([`QUEUE_DEPTH_ENV`]); a request that does not fit is shed
//!   fail-fast with a structured [`Frame::Reject`] carrying a
//!   `retry_after_ms` hint.  Memory is bounded by construction: nothing
//!   is buffered beyond the admitted queues.
//! * **Deadlines** — each request carries (or inherits,
//!   [`DEADLINE_ENV`]) a deadline; expiry cancels cooperatively via the
//!   shared [`CancelToken`] idiom: queued jobs resolve as
//!   [`JOB_SKIPPED`], running jobs finish, and the response is marked
//!   `partial` deterministically.
//! * **Quarantine** — a malformed or oversized frame poisons the
//!   connection's [`FrameReader`] (fail-closed, PR 8's pattern) and
//!   quarantines the tenant: existing work dies with the connection and
//!   re-hellos under that identity are refused.
//! * **Graceful drain** — [`Daemon::run`] watches a [`CancelToken`]
//!   (wired to SIGTERM by the CLI): on trip it stops admitting
//!   (structured rejects), notifies every connection with a
//!   [`Frame::Drain`], finishes or deadline-cancels in-flight requests
//!   within [`DRAIN_ENV`], flushes per-tenant journals, and returns so
//!   the process can exit 0.
//! * **Idle reaping** — connections with no live requests and no
//!   traffic for [`IDLE_ENV`] are closed.
//!
//! Liveness/readiness surfaces through the shared metrics registry:
//! `shm_serve_queue_depth{tenant=}`, `shm_serve_rejects`,
//! `shm_serve_deadline_cancels`, `shm_serve_active_tenants`.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use shm_recovery::JobJournal;
use sim_dist::protocol::{
    sweep_result_digest, write_frame, Frame, FrameError, FrameReader, JOB_FAILED, JOB_OK,
    JOB_SKIPPED, PROTOCOL_VERSION,
};
use sim_dist::{env_u64, DistError};
use sim_exec::{effective_jobs, CancelToken};

/// Environment variable: per-tenant bounded queue depth in jobs; a
/// submission that would exceed it is shed with [`Frame::Reject`].
pub const QUEUE_DEPTH_ENV: &str = "SHM_SERVE_QUEUE_DEPTH";

/// Environment variable: default per-request deadline in milliseconds
/// (0/unset = none).  A request's own `deadline_ms` field, when non-zero,
/// takes precedence.
pub const DEADLINE_ENV: &str = "SHM_SERVE_DEADLINE_MS";

/// Environment variable: grace period in milliseconds a SIGTERM drain
/// waits for in-flight requests before cancelling them to partial results.
pub const DRAIN_ENV: &str = "SHM_SERVE_DRAIN_MS";

/// Environment variable: idle-connection reap window in milliseconds — a
/// connection with no live requests and no frames for this long is closed.
pub const IDLE_ENV: &str = "SHM_SERVE_IDLE_MS";

/// Environment variable: maximum simultaneously active tenants; beyond
/// it, new tenants are shed with [`Frame::Reject`] until load subsides.
pub const MAX_TENANTS_ENV: &str = "SHM_SERVE_MAX_TENANTS";

/// Environment variable: deficit-round-robin quantum — consecutive jobs
/// one tenant may run before the scheduler moves to the next tenant.
pub const QUANTUM_ENV: &str = "SHM_SERVE_QUANTUM";

/// Environment variable (daemon side): path to a `tenant:token` table.
/// When set, every hello must present the matching token for its tenant
/// id — compared in constant time — or it is refused at the handshake.
/// Unset = open admission (today's behaviour).
pub const TOKENS_ENV: &str = "SHM_SERVE_TOKENS";

/// Environment variable (client side): the auth token `shm loadgen` and
/// other [`ServeClient`] users present in their hello.
pub const TOKEN_ENV: &str = "SHM_SERVE_TOKEN";

/// Every `SHM_SERVE_*` knob: (name, default, meaning).  The `shm env`
/// table extends itself from this list and a test asserts the list covers
/// every knob parsed anywhere in cli/sim-serve.
pub const ENV_KNOBS: &[(&str, &str, &str)] = &[
    (
        QUEUE_DEPTH_ENV,
        "64",
        "serve: bounded per-tenant queue depth in jobs (admission control)",
    ),
    (
        DEADLINE_ENV,
        "0 (off)",
        "serve: default per-request deadline before cooperative cancel to partial results",
    ),
    (
        DRAIN_ENV,
        "5000",
        "serve: SIGTERM grace period for in-flight requests before forced partial results",
    ),
    (
        IDLE_ENV,
        "30000",
        "serve: idle-connection reap window (no requests, no frames)",
    ),
    (
        MAX_TENANTS_ENV,
        "16",
        "serve: maximum simultaneously active tenants before shedding new ones",
    ),
    (
        QUANTUM_ENV,
        "4",
        "serve: deficit-round-robin quantum (jobs per tenant per scheduling turn)",
    ),
    (
        TOKENS_ENV,
        "unset (open admission)",
        "serve: path to a tenant:token table; hellos must present the matching token",
    ),
    (
        TOKEN_ENV,
        "empty",
        "serve client: auth token presented in the hello (loadgen and ServeClient users)",
    ),
];

/// Daemon tunables; [`ServeOptions::from_env`] resolves every
/// `SHM_SERVE_*` knob.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bounded per-tenant queue depth in jobs.
    pub queue_depth: usize,
    /// Default per-request deadline (ms); 0 disables.
    pub deadline_ms: u64,
    /// SIGTERM drain grace period (ms).
    pub drain_ms: u64,
    /// Idle-connection reap window (ms).
    pub idle_ms: u64,
    /// Maximum simultaneously active tenants.
    pub max_tenants: usize,
    /// DRR quantum: consecutive jobs per tenant per scheduling turn.
    pub quantum: u32,
    /// Execution pool width; `None` resolves like `Executor::from_env`.
    pub pool: Option<usize>,
    /// Bounded per-read socket timeout (ms) — doubles as the poll tick
    /// for drain/idle/deadline checks.
    pub read_timeout_ms: u64,
    /// When set, every completed job is appended to
    /// `<dir>/<tenant>.jsonl` (one [`JobJournal`] per tenant).
    pub journal_dir: Option<PathBuf>,
    /// Config hash checked at hello, exactly like the dist coordinator.
    pub config_hash: u64,
    /// Per-tenant auth tokens, keyed by tenant id.  `None` = open
    /// admission; `Some` refuses any hello whose token does not match its
    /// tenant's entry (unknown tenants are refused outright).
    pub tokens: Option<HashMap<String, String>>,
}

impl ServeOptions {
    pub fn new(config_hash: u64) -> Self {
        Self {
            queue_depth: 64,
            deadline_ms: 0,
            drain_ms: 5_000,
            idle_ms: 30_000,
            max_tenants: 16,
            quantum: 4,
            pool: None,
            read_timeout_ms: 50,
            journal_dir: None,
            config_hash,
            tokens: None,
        }
    }

    /// Defaults with every `SHM_SERVE_*` knob applied.
    pub fn from_env(config_hash: u64) -> Self {
        let mut o = Self::new(config_hash);
        if let Some(v) = env_u64(QUEUE_DEPTH_ENV) {
            o.queue_depth = v as usize;
        }
        if let Some(v) = env_u64(DEADLINE_ENV) {
            o.deadline_ms = v;
        }
        if let Some(v) = env_u64(DRAIN_ENV) {
            o.drain_ms = v;
        }
        if let Some(v) = env_u64(IDLE_ENV) {
            o.idle_ms = v;
        }
        if let Some(v) = env_u64(MAX_TENANTS_ENV) {
            o.max_tenants = v as usize;
        }
        if let Some(v) = env_u64(QUANTUM_ENV) {
            o.quantum = v.min(u32::MAX as u64) as u32;
        }
        if let Ok(path) = std::env::var(TOKENS_ENV) {
            if !path.trim().is_empty() {
                // Fail closed: a configured-but-unreadable table admits
                // nobody rather than everybody.
                o.tokens = Some(load_token_table(&path).unwrap_or_else(|e| {
                    eprintln!("serve: {TOKENS_ENV}: {e}; refusing all tenants");
                    HashMap::new()
                }));
            }
        }
        o
    }
}

/// Parses a `tenant:token` table (one pair per line; blank lines and
/// `#` comments ignored; token may itself contain `:`).
pub fn load_token_table(path: &str) -> Result<HashMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut table = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((tenant, token)) = line.split_once(':') else {
            return Err(format!("{path}:{}: expected tenant:token", lineno + 1));
        };
        table.insert(tenant.trim().to_string(), token.trim().to_string());
    }
    Ok(table)
}

/// Constant-time string equality: scans `max(len)` bytes regardless of
/// where (or whether) the inputs diverge, so a rejected hello leaks no
/// prefix-length timing signal about the expected token.
fn ct_str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Handshake verdict for a presenting tenant: open admission when no
/// table is configured, otherwise the tenant must exist in the table and
/// the token must match in constant time.
fn token_ok(tokens: Option<&HashMap<String, String>>, tenant: &str, presented: &str) -> bool {
    match tokens {
        None => true,
        Some(table) => match table.get(tenant) {
            // Unknown tenant: burn a comparison anyway so "tenant not in
            // the table" is not distinguishable by timing from "wrong
            // token".
            None => {
                let _ = ct_str_eq(presented, "\u{0}absent");
                false
            }
            Some(expected) => ct_str_eq(presented, expected),
        },
    }
}

/// What the daemon did over its lifetime, returned by [`Daemon::run`]
/// after a graceful drain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests shed with a structured [`Frame::Reject`].
    pub rejected: u64,
    /// Requests that reached a terminal [`Frame::SweepResult`].
    pub completed: u64,
    /// Completed requests whose result was partial (deadline or drain).
    pub partial: u64,
    /// Requests cancelled by deadline expiry.
    pub deadline_cancels: u64,
    /// Tenants quarantined for malformed traffic.
    pub quarantines: u64,
    /// Jobs that ran to a clean result.
    pub jobs_ok: u64,
    /// Jobs whose handler panicked.
    pub jobs_failed: u64,
    /// Jobs resolved as skipped without running.
    pub jobs_skipped: u64,
    /// True when every in-flight request terminated within the drain
    /// grace period (no forced cancellation was needed).
    pub drained_clean: bool,
}

type Handler = Arc<dyn Fn(&str, &str) -> String + Send + Sync>;

struct QueuedJob {
    req: u64,
    index: usize,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<QueuedJob>,
    deficit: u32,
    live_requests: usize,
}

struct RequestState {
    tenant: String,
    client_req_id: u64,
    conn: u64,
    labels: Vec<String>,
    payloads: Vec<String>,
    results: Vec<Option<(u8, String)>>,
    remaining: usize,
    running: usize,
    deadline: Option<Instant>,
    accepted: Instant,
    cancelled: bool,
    /// Client connection died: keep accounting, stop writing frames.
    dead: bool,
    seq: u64,
    writer: Arc<Mutex<TcpStream>>,
}

#[derive(Default)]
struct ServeState {
    draining: bool,
    shutdown: bool,
    next_req: u64,
    requests: HashMap<u64, RequestState>,
    tenants: BTreeMap<String, TenantState>,
    rr_cursor: usize,
    quarantined: HashSet<String>,
    report: ServeReport,
}

struct Shared {
    opts: ServeOptions,
    handler: Handler,
    started: Instant,
    inner: Mutex<ServeState>,
    work: Condvar,
    journals: Mutex<HashMap<String, Option<JobJournal>>>,
}

impl Shared {
    fn queue_gauge(&self, tenant: &str, depth: usize) {
        shm_metrics::labeled_gauge(
            "shm_serve_queue_depth",
            "Queued jobs per tenant on the serve daemon",
            &[("tenant", tenant)],
        )
        .set(depth as i64);
    }

    fn active_tenants_gauge(&self, state: &ServeState) {
        let active = state
            .tenants
            .values()
            .filter(|t| t.live_requests > 0 || !t.queue.is_empty())
            .count();
        shm_metrics::gauge!(
            "shm_serve_active_tenants",
            "Tenants with live requests on the serve daemon"
        )
        .set(active as i64);
    }
}

/// Deficit round-robin: visit tenants in stable order from a rotating
/// cursor; a visited tenant refills its deficit with the quantum and
/// spends one unit per job until it runs dry, then the cursor moves on.
fn next_job(state: &mut ServeState, quantum: u32) -> Option<(u64, usize)> {
    let keys: Vec<String> = state
        .tenants
        .iter()
        .filter(|(_, t)| !t.queue.is_empty())
        .map(|(k, _)| k.clone())
        .collect();
    if keys.is_empty() {
        return None;
    }
    let start = state.rr_cursor % keys.len();
    for step in 0..keys.len() {
        let idx = (start + step) % keys.len();
        let Some(t) = state.tenants.get_mut(&keys[idx]) else {
            continue;
        };
        let Some(job) = t.queue.pop_front() else {
            continue;
        };
        if t.deficit == 0 {
            t.deficit = quantum.max(1);
        }
        t.deficit -= 1;
        if t.deficit == 0 || t.queue.is_empty() {
            t.deficit = 0;
            state.rr_cursor = idx + 1;
        } else {
            state.rr_cursor = idx;
        }
        return Some((job.req, job.index));
    }
    None
}

/// Best-effort frame write; a dead client is discovered on its reader.
fn send(writer: &Arc<Mutex<TcpStream>>, frame: &Frame) {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let _ = write_frame(&mut *w, frame);
}

/// Terminal work for a finished request, extracted under the state lock
/// and performed after it is released (socket + journal I/O).
struct Finalize {
    writer: Option<Arc<Mutex<TcpStream>>>,
    frame: Frame,
    tenant: String,
    journal: Vec<(String, String)>,
}

/// Remove a finished request (remaining == 0, and running == 0 so every
/// progress frame is already written) and build its terminal
/// [`Frame::SweepResult`].  Must be called with the state lock held.
fn finalize_locked(shared: &Shared, state: &mut ServeState, req: u64) -> Option<Finalize> {
    let r = state.requests.remove(&req)?;
    if let Some(t) = state.tenants.get_mut(&r.tenant) {
        t.live_requests = t.live_requests.saturating_sub(1);
    }
    let results: Vec<(u8, String)> = r
        .results
        .into_iter()
        .map(|e| e.unwrap_or((JOB_SKIPPED, String::new())))
        .collect();
    let partial = r.cancelled || results.iter().any(|(s, _)| *s == JOB_SKIPPED);
    state.report.completed += 1;
    if partial {
        state.report.partial += 1;
    }
    shared.active_tenants_gauge(state);
    let digest = sweep_result_digest(partial, &results);
    let journal: Vec<(String, String)> = results
        .iter()
        .enumerate()
        .filter(|(_, (s, _))| *s == JOB_OK)
        .map(|(i, (_, p))| (format!("req{}/{}", r.client_req_id, r.labels[i]), p.clone()))
        .collect();
    let frame = Frame::SweepResult {
        req_id: r.client_req_id,
        seq: r.seq,
        ts_ms: r.accepted.elapsed().as_millis() as u64,
        partial,
        results,
        digest,
    };
    Some(Finalize {
        writer: (!r.dead).then(|| Arc::clone(&r.writer)),
        frame,
        tenant: r.tenant,
        journal,
    })
}

fn apply_finalize(shared: &Shared, f: Finalize) {
    if let Some(w) = &f.writer {
        send(w, &f.frame);
    }
    if let Some(dir) = &shared.opts.journal_dir {
        if !f.journal.is_empty() {
            let mut journals = shared.journals.lock().unwrap_or_else(|e| e.into_inner());
            let entry = journals.entry(f.tenant.clone()).or_insert_with(|| {
                let safe: String = f
                    .tenant
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                JobJournal::open(dir.join(format!("{safe}.jsonl")), shared.opts.config_hash).ok()
            });
            if let Some(j) = entry {
                for (label, payload) in &f.journal {
                    let _ = j.record(label, payload);
                }
            }
        }
    }
}

/// Cancel a request in place: scrub its queued jobs to [`JOB_SKIPPED`]
/// (running jobs finish cooperatively).  Returns the finalize work when
/// the scrub emptied it.  Must be called with the state lock held.
fn cancel_request_locked(
    shared: &Shared,
    state: &mut ServeState,
    req: u64,
    mark_dead: bool,
) -> Option<Finalize> {
    let r = state.requests.get_mut(&req)?;
    r.cancelled = true;
    if mark_dead {
        r.dead = true;
    }
    let tenant = r.tenant.clone();
    let mut skipped = 0u64;
    let mine: Vec<usize> = match state.tenants.get_mut(&tenant) {
        Some(t) => {
            let (keep, mine): (VecDeque<QueuedJob>, VecDeque<QueuedJob>) =
                t.queue.drain(..).partition(|q| q.req != req);
            t.queue = keep;
            mine.into_iter().map(|q| q.index).collect()
        }
        None => Vec::new(),
    };
    let depth = state.tenants.get(&tenant).map_or(0, |t| t.queue.len());
    shared.queue_gauge(&tenant, depth);
    let r = state.requests.get_mut(&req)?;
    for index in mine {
        if r.results[index].is_none() {
            r.results[index] = Some((JOB_SKIPPED, String::new()));
            r.remaining -= 1;
            skipped += 1;
        }
    }
    state.report.jobs_skipped += skipped;
    let r = state.requests.get(&req)?;
    (r.remaining == 0 && r.running == 0)
        .then(|| finalize_locked(shared, state, req))
        .flatten()
}

/// The long-running daemon.  Bind, then [`Daemon::run`] until the cancel
/// token trips (SIGTERM), which triggers the graceful drain.
pub struct Daemon {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Daemon {
    pub fn bind<H>(addr: &str, opts: ServeOptions, handler: H) -> Result<Self, DistError>
    where
        H: Fn(&str, &str) -> String + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr).map_err(DistError::Io)?;
        Ok(Self {
            listener,
            shared: Arc::new(Shared {
                opts,
                handler: Arc::new(handler),
                started: Instant::now(),
                inner: Mutex::new(ServeState::default()),
                work: Condvar::new(),
                journals: Mutex::new(HashMap::new()),
            }),
        })
    }

    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Serve until `token` trips, then drain gracefully: stop admitting,
    /// announce [`Frame::Drain`] on every connection, give in-flight
    /// requests [`ServeOptions::drain_ms`] to terminate, cancel the rest
    /// to deterministic partial results, flush journals, and return.
    pub fn run(self, token: &CancelToken) -> Result<ServeReport, DistError> {
        self.listener.set_nonblocking(true).map_err(DistError::Io)?;
        let pool_width = effective_jobs(self.shared.opts.pool).max(1);

        let mut pool = Vec::new();
        for _ in 0..pool_width {
            let shared = Arc::clone(&self.shared);
            pool.push(std::thread::spawn(move || pool_thread(&shared)));
        }
        let reaper = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || reaper_thread(&shared))
        };

        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut next_conn = 0u64;
        while !token.is_cancelled() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    let conn_id = next_conn;
                    next_conn += 1;
                    conns.push(std::thread::spawn(move || {
                        serve_connection(&shared, conn_id, stream);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            conns.retain(|h| !h.is_finished());
        }

        // --- Graceful drain ---
        {
            let mut state = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            state.draining = true;
        }
        let grace = Duration::from_millis(self.shared.opts.drain_ms.max(1));
        let t0 = Instant::now();
        let mut drained_clean = true;
        loop {
            let outstanding = {
                let state = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                state.requests.len()
            };
            if outstanding == 0 {
                break;
            }
            if t0.elapsed() >= grace {
                drained_clean = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !drained_clean {
            // Force-cancel what the grace period did not finish: queued
            // jobs resolve as skipped, running jobs finish cooperatively.
            let finals: Vec<Finalize> = {
                let mut state = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                let ids: Vec<u64> = state.requests.keys().copied().collect();
                ids.iter()
                    .filter_map(|&req| cancel_request_locked(&self.shared, &mut state, req, false))
                    .collect()
            };
            for f in finals {
                apply_finalize(&self.shared, f);
            }
            // One more bounded wait for running jobs to land.
            let t1 = Instant::now();
            while t1.elapsed() < grace {
                let outstanding = {
                    let state = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    state.requests.len()
                };
                if outstanding == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        {
            let mut state = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in pool {
            let _ = h.join();
        }
        let _ = reaper.join();
        for h in conns {
            let _ = h.join();
        }
        // Journals flush per record; dropping the map closes the files.
        self.shared
            .journals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();

        let state = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut report = state.report.clone();
        report.drained_clean = drained_clean;
        Ok(report)
    }
}

fn pool_thread(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = next_job(&mut state, shared.opts.quantum) {
                    let (req, index) = job;
                    let Some(tenant) = state.requests.get(&req).map(|r| r.tenant.clone()) else {
                        continue;
                    };
                    let depth = state.tenants.get(&tenant).map_or(0, |t| t.queue.len());
                    shared.queue_gauge(&tenant, depth);
                    let r = state.requests.get_mut(&req).expect("checked above");
                    if r.cancelled || r.dead {
                        // Deadline fired or the client vanished while this
                        // job sat queued: resolve as skipped, never run it.
                        if r.results[index].is_none() {
                            r.results[index] = Some((JOB_SKIPPED, String::new()));
                            r.remaining -= 1;
                            state.report.jobs_skipped += 1;
                        }
                        let done = state
                            .requests
                            .get(&req)
                            .is_some_and(|r| r.remaining == 0 && r.running == 0);
                        if done {
                            if let Some(f) = finalize_locked(shared, &mut state, req) {
                                drop(state);
                                apply_finalize(shared, f);
                                state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                            }
                        }
                        continue;
                    }
                    r.running += 1;
                    break Some((
                        req,
                        index,
                        r.labels[index].clone(),
                        r.payloads[index].clone(),
                    ));
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .work
                    .wait_timeout(state, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        };
        let Some((req, index, label, payload)) = job else {
            return;
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| (shared.handler)(&label, &payload)));
        let (status, body) = match outcome {
            Ok(result) => (JOB_OK, result),
            Err(panic) => (JOB_FAILED, panic_text(panic)),
        };

        // The job stays `running` until its progress frame is written, so
        // no other thread can finalize the request and send its
        // SweepResult ahead of this frame.
        let progress = {
            let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            match status {
                JOB_OK => state.report.jobs_ok += 1,
                _ => state.report.jobs_failed += 1,
            }
            let Some(r) = state.requests.get_mut(&req) else {
                continue;
            };
            if r.results[index].is_none() {
                r.results[index] = Some((status, body));
                r.remaining -= 1;
            }
            (!r.dead).then(|| {
                let seq = r.seq;
                r.seq += 1;
                (
                    Arc::clone(&r.writer),
                    Frame::JobProgress {
                        req_id: r.client_req_id,
                        seq,
                        ts_ms: r.accepted.elapsed().as_millis() as u64,
                        index: index as u32,
                        label,
                        status,
                    },
                )
            })
        };
        if let Some((w, frame)) = progress {
            send(&w, &frame);
        }
        let finalize = {
            let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            let Some(r) = state.requests.get_mut(&req) else {
                continue;
            };
            r.running -= 1;
            (r.remaining == 0 && r.running == 0)
                .then(|| finalize_locked(shared, &mut state, req))
                .flatten()
        };
        if let Some(f) = finalize {
            apply_finalize(shared, f);
        }
    }
}

/// Deadline watchdog: ticks every 20ms, cancels expired requests
/// (cooperatively — queued jobs skip, running jobs finish) and counts
/// each expiry once.
fn reaper_thread(shared: &Shared) {
    loop {
        let finals: Vec<Finalize> = {
            let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            let expired: Vec<u64> = state
                .requests
                .iter()
                .filter(|(_, r)| !r.cancelled && r.deadline.is_some_and(|d| now >= d))
                .map(|(&id, _)| id)
                .collect();
            expired
                .iter()
                .filter_map(|&req| {
                    state.report.deadline_cancels += 1;
                    shm_metrics::counter!(
                        "shm_serve_deadline_cancels",
                        "Requests cancelled by deadline expiry on the serve daemon"
                    )
                    .inc();
                    cancel_request_locked(shared, &mut state, req, false)
                })
                .collect()
        };
        for f in finals {
            apply_finalize(shared, f);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn reject(writer: &Arc<Mutex<TcpStream>>, req_id: u64, retry_after_ms: u64, reason: &str) {
    shm_metrics::counter!(
        "shm_serve_rejects",
        "Requests shed by serve admission control"
    )
    .inc();
    send(
        writer,
        &Frame::Reject {
            req_id,
            retry_after_ms,
            reason: reason.to_string(),
        },
    );
}

fn quarantine_tenant(shared: &Shared, tenant: &str, reason: &str) {
    let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    if state.quarantined.insert(tenant.to_string()) {
        state.report.quarantines += 1;
        shm_metrics::counter!(
            "shm_serve_quarantines",
            "Tenants quarantined for malformed traffic"
        )
        .inc();
        eprintln!("serve: quarantined tenant '{tenant}': {reason}");
    }
}

fn serve_connection(shared: &Shared, conn_id: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let tick = Duration::from_millis(shared.opts.read_timeout_ms.clamp(10, 100));
    if stream.set_read_timeout(Some(tick)).is_err() {
        return;
    }
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer_stream));
    let mut reader = FrameReader::new(stream);

    // --- Handshake: same versioned hello as the dist cluster ---
    let hello_deadline = Instant::now() + Duration::from_secs(10);
    let tenant = loop {
        match reader.read_frame() {
            Ok(Frame::Hello {
                version,
                config_hash,
                worker_id,
                token,
                ..
            }) => {
                let refusal = {
                    let state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    if version != PROTOCOL_VERSION {
                        Some(format!(
                            "protocol version mismatch: daemon {PROTOCOL_VERSION}, client {version}"
                        ))
                    } else if config_hash != shared.opts.config_hash {
                        Some("config hash mismatch".to_string())
                    } else if state.quarantined.contains(&worker_id) {
                        Some(format!("tenant '{worker_id}' is quarantined"))
                    } else if !token_ok(shared.opts.tokens.as_ref(), &worker_id, &token) {
                        shm_metrics::counter!(
                            "shm_serve_auth_rejects",
                            "Hellos refused for a missing or wrong tenant token"
                        )
                        .inc();
                        Some(format!("tenant '{worker_id}': bad auth token"))
                    } else if state.draining {
                        Some("daemon is draining".to_string())
                    } else {
                        None
                    }
                };
                match refusal {
                    Some(reason) => {
                        send(
                            &writer,
                            &Frame::HelloAck {
                                accepted: false,
                                reason,
                            },
                        );
                        return;
                    }
                    None => {
                        send(
                            &writer,
                            &Frame::HelloAck {
                                accepted: true,
                                reason: String::new(),
                            },
                        );
                        break worker_id;
                    }
                }
            }
            Ok(_) => return, // not a hello: drop pre-handshake
            Err(FrameError::Timeout) if Instant::now() < hello_deadline => continue,
            Err(_) => return,
        }
    };

    let mut drain_sent = false;
    let mut client_leaving = false;
    let mut last_activity = Instant::now();
    let idle = Duration::from_millis(shared.opts.idle_ms.max(1));
    loop {
        let (draining, active) = {
            let state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            (
                state.draining,
                state.requests.values().any(|r| r.conn == conn_id),
            )
        };
        if draining && !drain_sent {
            drain_sent = true;
            send(
                &writer,
                &Frame::Drain {
                    reason: "daemon draining (rolling restart)".into(),
                },
            );
        }
        if (draining || client_leaving) && !active {
            break;
        }
        if !active && last_activity.elapsed() >= idle {
            break; // idle reap
        }
        match reader.read_frame() {
            Ok(Frame::SubmitSweep {
                tenant: claimed,
                req_id,
                deadline_ms,
                jobs,
            }) => {
                last_activity = Instant::now();
                if claimed != tenant {
                    // Identity spoofing across the handshake boundary.
                    quarantine_tenant(shared, &tenant, "tenant id mismatch on submit");
                    reject(&writer, req_id, 0, "tenant id does not match handshake");
                    break;
                }
                admit(shared, conn_id, &tenant, req_id, deadline_ms, jobs, &writer);
            }
            Ok(Frame::Heartbeat { .. }) => last_activity = Instant::now(),
            Ok(Frame::Drain { .. }) => {
                // Polite client goodbye: stop reading new work, close once
                // its outstanding requests have terminated.
                last_activity = Instant::now();
                client_leaving = true;
            }
            Ok(_) => {
                quarantine_tenant(shared, &tenant, "unexpected frame type");
                break;
            }
            Err(FrameError::Timeout) => {}
            Err(FrameError::Eof) => break,
            Err(FrameError::Corrupt(why)) => {
                // Fail-closed poisoned reader (PR 8's pattern): the stream
                // is untrustworthy and so is the tenant behind it.
                quarantine_tenant(shared, &tenant, &format!("corrupt frame: {why}"));
                break;
            }
            Err(FrameError::Io(_)) => break,
        }
    }

    // Connection teardown: anything this connection still owned dies with
    // it — cancelled, marked dead (no more writes), queued jobs skipped.
    let finals: Vec<Finalize> = {
        let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mine: Vec<u64> = state
            .requests
            .iter()
            .filter(|(_, r)| r.conn == conn_id)
            .map(|(&id, _)| id)
            .collect();
        mine.iter()
            .filter_map(|&req| cancel_request_locked(shared, &mut state, req, true))
            .collect()
    };
    for f in finals {
        apply_finalize(shared, f);
    }
}

#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &Shared,
    conn_id: u64,
    tenant: &str,
    req_id: u64,
    deadline_ms: u64,
    jobs: Vec<(String, String)>,
    writer: &Arc<Mutex<TcpStream>>,
) {
    let verdict = {
        let mut state = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if state.draining {
            state.report.rejected += 1;
            Err((0u64, "daemon is draining".to_string()))
        } else if state.quarantined.contains(tenant) {
            state.report.rejected += 1;
            Err((0, format!("tenant '{tenant}' is quarantined")))
        } else if jobs.len() > shared.opts.queue_depth {
            state.report.rejected += 1;
            Err((
                0,
                format!(
                    "request of {} jobs exceeds the tenant queue depth {}",
                    jobs.len(),
                    shared.opts.queue_depth
                ),
            ))
        } else {
            let queued = state.tenants.get(tenant).map_or(0, |t| t.queue.len());
            let tenant_active = state
                .tenants
                .get(tenant)
                .is_some_and(|t| t.live_requests > 0 || !t.queue.is_empty());
            let active_tenants = state
                .tenants
                .values()
                .filter(|t| t.live_requests > 0 || !t.queue.is_empty())
                .count();
            if queued + jobs.len() > shared.opts.queue_depth {
                state.report.rejected += 1;
                let retry = ((queued as u64) * 25).clamp(50, 2_000);
                Err((retry, "tenant queue full".to_string()))
            } else if !tenant_active && active_tenants >= shared.opts.max_tenants {
                state.report.rejected += 1;
                Err((500, "tenant limit reached".to_string()))
            } else if jobs.is_empty() {
                // Nothing to do: terminal empty result, not an error.
                state.report.accepted += 1;
                state.report.completed += 1;
                Ok(None)
            } else {
                let internal = state.next_req;
                state.next_req += 1;
                let deadline_ms = if deadline_ms > 0 {
                    deadline_ms
                } else {
                    shared.opts.deadline_ms
                };
                let (labels, payloads): (Vec<String>, Vec<String>) = jobs.into_iter().unzip();
                let count = labels.len();
                state.requests.insert(
                    internal,
                    RequestState {
                        tenant: tenant.to_string(),
                        client_req_id: req_id,
                        conn: conn_id,
                        labels,
                        payloads,
                        results: vec![None; count],
                        remaining: count,
                        running: 0,
                        deadline: (deadline_ms > 0)
                            .then(|| Instant::now() + Duration::from_millis(deadline_ms)),
                        accepted: Instant::now(),
                        cancelled: false,
                        dead: false,
                        seq: 0,
                        writer: Arc::clone(writer),
                    },
                );
                let t = state.tenants.entry(tenant.to_string()).or_default();
                t.live_requests += 1;
                for index in 0..count {
                    t.queue.push_back(QueuedJob {
                        req: internal,
                        index,
                    });
                }
                let depth = t.queue.len();
                shared.queue_gauge(tenant, depth);
                state.report.accepted += 1;
                shared.active_tenants_gauge(&state);
                Ok(Some(()))
            }
        }
    };
    match verdict {
        Ok(Some(())) => shared.work.notify_all(),
        Ok(None) => send(
            writer,
            &Frame::SweepResult {
                req_id,
                seq: 0,
                ts_ms: shared.started.elapsed().as_millis() as u64,
                partial: false,
                results: Vec::new(),
                digest: sweep_result_digest(false, &[]),
            },
        ),
        Err((retry_after_ms, reason)) => reject(writer, req_id, retry_after_ms, &reason),
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// One decoded response-stream event, from [`ServeClient::next_event`].
#[derive(Clone, Debug)]
pub enum ServeEvent {
    /// One job finished; `seq`/`ts_ms` order and gap-check the stream.
    Progress {
        req_id: u64,
        seq: u64,
        ts_ms: u64,
        index: u32,
        label: String,
        status: u8,
    },
    /// Terminal result for a request.
    Done(SweepOutcome),
    /// Admission control shed the request.
    Rejected {
        req_id: u64,
        retry_after_ms: u64,
        reason: String,
    },
    /// The daemon is draining for a rolling restart: stop submitting.
    Draining { reason: String },
}

/// A terminal [`Frame::SweepResult`], with the end-to-end digest
/// re-verified (`digest_ok` false = silent corruption past the CRC).
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    pub req_id: u64,
    pub partial: bool,
    pub results: Vec<(u8, String)>,
    pub digest_ok: bool,
}

/// Minimal blocking client for the serve protocol, shared by
/// `shm loadgen` and the robustness tests.
pub struct ServeClient {
    tenant: String,
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
    next_req: u64,
}

impl ServeClient {
    /// Connect and complete the versioned hello as tenant `tenant`,
    /// presenting `token` (empty against an open-admission daemon).
    pub fn connect(
        addr: &str,
        tenant: &str,
        config_hash: u64,
        token: &str,
    ) -> Result<Self, DistError> {
        let stream = TcpStream::connect(addr).map_err(DistError::Io)?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(DistError::Io)?;
        let mut writer = stream.try_clone().map_err(DistError::Io)?;
        let mut reader = FrameReader::new(stream);
        write_frame(
            &mut writer,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                config_hash,
                worker_id: tenant.to_string(),
                window: 0,
                token: token.to_string(),
            },
        )
        .map_err(DistError::Io)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reader.read_frame() {
                Ok(Frame::HelloAck { accepted: true, .. }) => {
                    return Ok(Self {
                        tenant: tenant.to_string(),
                        writer,
                        reader,
                        next_req: 1,
                    })
                }
                Ok(Frame::HelloAck {
                    accepted: false,
                    reason,
                }) => return Err(DistError::Rejected { reason }),
                Ok(other) => {
                    return Err(DistError::Protocol(format!(
                        "expected hello ack, got {other:?}"
                    )))
                }
                Err(FrameError::Timeout) if Instant::now() < deadline => continue,
                Err(FrameError::Timeout) => {
                    return Err(DistError::Protocol("hello ack timed out".into()))
                }
                Err(e) => return Err(DistError::Protocol(e.to_string())),
            }
        }
    }

    /// Submit one sweep; returns the client-chosen request id to match
    /// against response events.
    pub fn submit(
        &mut self,
        deadline_ms: u64,
        jobs: &[(String, String)],
    ) -> Result<u64, DistError> {
        let req_id = self.next_req;
        self.next_req += 1;
        write_frame(
            &mut self.writer,
            &Frame::SubmitSweep {
                tenant: self.tenant.clone(),
                req_id,
                deadline_ms,
                jobs: jobs.to_vec(),
            },
        )
        .map_err(DistError::Io)?;
        Ok(req_id)
    }

    /// Announce a polite goodbye so the daemon can reap the connection
    /// as soon as outstanding requests terminate.
    pub fn goodbye(&mut self) {
        let _ = write_frame(
            &mut self.writer,
            &Frame::Drain {
                reason: "client done".into(),
            },
        );
    }

    /// Next response-stream event, or `None` when `timeout` elapses
    /// first.  Verifies the [`sweep_result_digest`] on terminal frames.
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<ServeEvent>, DistError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.reader.read_frame() {
                Ok(Frame::JobProgress {
                    req_id,
                    seq,
                    ts_ms,
                    index,
                    label,
                    status,
                }) => {
                    return Ok(Some(ServeEvent::Progress {
                        req_id,
                        seq,
                        ts_ms,
                        index,
                        label,
                        status,
                    }))
                }
                Ok(Frame::SweepResult {
                    req_id,
                    partial,
                    results,
                    digest,
                    ..
                }) => {
                    let digest_ok = sweep_result_digest(partial, &results) == digest;
                    return Ok(Some(ServeEvent::Done(SweepOutcome {
                        req_id,
                        partial,
                        results,
                        digest_ok,
                    })));
                }
                Ok(Frame::Reject {
                    req_id,
                    retry_after_ms,
                    reason,
                }) => {
                    return Ok(Some(ServeEvent::Rejected {
                        req_id,
                        retry_after_ms,
                        reason,
                    }))
                }
                Ok(Frame::Drain { reason }) => return Ok(Some(ServeEvent::Draining { reason })),
                Ok(_) => return Err(DistError::Protocol("unexpected frame from daemon".into())),
                Err(FrameError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(DistError::Protocol(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(hash: u64) -> ServeOptions {
        let mut o = ServeOptions::new(hash);
        o.pool = Some(2);
        o.drain_ms = 2_000;
        o
    }

    fn echo_jobs(n: usize) -> Vec<(String, String)> {
        (0..n)
            .map(|i| (format!("job-{i}"), format!("payload-{i}")))
            .collect()
    }

    fn start(opts: ServeOptions) -> (String, CancelToken, std::thread::JoinHandle<ServeReport>) {
        let daemon = Daemon::bind("127.0.0.1:0", opts, |label, payload| {
            format!("{label}:{payload}:ok")
        })
        .unwrap();
        let addr = daemon.local_addr().to_string();
        let token = CancelToken::new();
        let t = token.clone();
        let h = std::thread::spawn(move || daemon.run(&t).unwrap());
        (addr, token, h)
    }

    #[test]
    fn single_tenant_sweep_round_trips_in_order() {
        let (addr, token, daemon) = start(quick_opts(0x5E57));
        let mut c = ServeClient::connect(&addr, "t0", 0x5E57, "").unwrap();
        let req = c.submit(0, &echo_jobs(6)).unwrap();
        let mut seqs = Vec::new();
        let outcome = loop {
            match c.next_event(Duration::from_secs(10)).unwrap() {
                Some(ServeEvent::Progress { seq, .. }) => seqs.push(seq),
                Some(ServeEvent::Done(o)) => break o,
                other => panic!("unexpected event: {other:?}"),
            }
        };
        // Concurrent pool threads may interleave writes; the seq tags let
        // the client prove the stream is complete and gap-free.
        seqs.sort_unstable();
        assert_eq!(seqs, (0..6).collect::<Vec<u64>>());
        assert_eq!(outcome.req_id, req);
        assert!(outcome.digest_ok);
        assert!(!outcome.partial);
        assert_eq!(outcome.results.len(), 6);
        for (i, (status, payload)) in outcome.results.iter().enumerate() {
            assert_eq!(*status, JOB_OK);
            assert_eq!(payload, &format!("job-{i}:payload-{i}:ok"));
        }
        token.cancel();
        let report = daemon.join().unwrap();
        assert_eq!(report.accepted, 1);
        assert_eq!(report.completed, 1);
        assert!(report.drained_clean);
    }

    #[test]
    fn every_progress_frame_arrives_before_its_sweep_result() {
        let (addr, token, daemon) = start(quick_opts(0x0BDE));
        let mut c = ServeClient::connect(&addr, "t0", 0x0BDE, "").unwrap();
        let mut short = 0usize;
        for _ in 0..400 {
            let req = c.submit(0, &echo_jobs(6)).unwrap();
            let mut seqs = Vec::new();
            loop {
                match c.next_event(Duration::from_secs(10)).unwrap() {
                    // A frame that outran an earlier round's result was
                    // already counted against that round.
                    Some(ServeEvent::Progress { req_id, seq, .. }) => {
                        if req_id == req {
                            seqs.push(seq);
                        }
                    }
                    Some(ServeEvent::Done(o)) if o.req_id == req => break,
                    other => panic!("unexpected event: {other:?}"),
                }
            }
            seqs.sort_unstable();
            if seqs != [0, 1, 2, 3, 4, 5] {
                short += 1;
            }
        }
        token.cancel();
        daemon.join().unwrap();
        assert_eq!(
            short, 0,
            "{short} of 400 sweeps ended before all their progress frames arrived"
        );
    }

    #[test]
    fn token_table_gates_the_handshake() {
        let mut opts = quick_opts(0xA07);
        opts.tokens = Some(HashMap::from([
            ("alice".to_string(), "open-sesame".to_string()),
            ("bob".to_string(), "hunter2".to_string()),
        ]));
        let (addr, token, daemon) = start(opts);

        // Wrong token, missing token, and unknown tenant are all refused
        // at the hello with the same shape of reason.
        for (tenant, presented) in [
            ("alice", "hunter2"),
            ("alice", ""),
            ("mallory", "open-sesame"),
        ] {
            match ServeClient::connect(&addr, tenant, 0xA07, presented) {
                Err(DistError::Rejected { reason }) => {
                    assert!(reason.contains("bad auth token"), "{reason}");
                }
                Err(other) => panic!("expected an auth reject, got {other:?}"),
                Ok(_) => panic!("{tenant:?} with token {presented:?} must not be admitted"),
            }
        }

        // The right token admits and the request round-trips normally.
        let mut c = ServeClient::connect(&addr, "alice", 0xA07, "open-sesame").unwrap();
        c.submit(0, &echo_jobs(2)).unwrap();
        loop {
            match c.next_event(Duration::from_secs(10)).unwrap() {
                Some(ServeEvent::Done(o)) => {
                    assert!(o.digest_ok);
                    assert_eq!(o.results.len(), 2);
                    break;
                }
                Some(ServeEvent::Progress { .. }) => continue,
                other => panic!("unexpected event: {other:?}"),
            }
        }
        token.cancel();
        daemon.join().unwrap();
    }

    #[test]
    fn token_table_parses_and_compares_in_constant_time_shape() {
        let dir = std::env::temp_dir().join(format!("shm-tokens-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tokens.txt");
        std::fs::write(
            &path,
            "# staging tenants\nalice: open-sesame\n\nbob:with:colons\n",
        )
        .unwrap();
        let table = load_token_table(path.to_str().unwrap()).unwrap();
        assert_eq!(table["alice"], "open-sesame");
        assert_eq!(table["bob"], "with:colons");
        std::fs::remove_dir_all(&dir).ok();

        assert!(token_ok(None, "anyone", ""));
        assert!(token_ok(Some(&table), "alice", "open-sesame"));
        assert!(!token_ok(Some(&table), "alice", "open-sesam"));
        assert!(!token_ok(Some(&table), "alice", "open-sesame-and-more"));
        assert!(!token_ok(Some(&table), "mallory", "open-sesame"));
        assert!(ct_str_eq("", ""));
        assert!(!ct_str_eq("", "x"));
    }

    #[test]
    fn oversized_request_is_rejected_structurally() {
        let mut opts = quick_opts(1);
        opts.queue_depth = 4;
        let (addr, token, daemon) = start(opts);
        let mut c = ServeClient::connect(&addr, "greedy", 1, "").unwrap();
        let req = c.submit(0, &echo_jobs(5)).unwrap();
        match c.next_event(Duration::from_secs(5)).unwrap() {
            Some(ServeEvent::Rejected { req_id, reason, .. }) => {
                assert_eq!(req_id, req);
                assert!(reason.contains("queue depth"), "{reason}");
            }
            other => panic!("expected a reject, got {other:?}"),
        }
        token.cancel();
        let report = daemon.join().unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.accepted, 0);
    }

    #[test]
    fn drr_cursor_cycles_tenants() {
        let mut state = ServeState::default();
        for (t, n) in [("a", 4usize), ("b", 4)] {
            let ts = state.tenants.entry(t.into()).or_default();
            for i in 0..n {
                ts.queue.push_back(QueuedJob {
                    req: u64::from(t.as_bytes()[0]),
                    index: i,
                });
            }
        }
        let mut order = Vec::new();
        while let Some((req, _)) = next_job(&mut state, 2) {
            order.push(req);
        }
        // Quantum 2: two from a, two from b, two from a, two from b.
        let a = u64::from(b'a');
        let b = u64::from(b'b');
        assert_eq!(order, vec![a, a, b, b, a, a, b, b]);
    }
}
