//! Telemetry subsystem for the SHM simulator: structured tracing, per-epoch
//! metrics, and log-scaled latency histograms.
//!
//! The entry point is [`Probe`], a cheap cloneable handle threaded through the
//! simulation layers. A disabled probe (the default) is a `None` — every hook
//! is a single branch on the record path, so simulation results and, to within
//! noise, runtime are unchanged when telemetry is off.
//!
//! When enabled, a probe collects:
//! - structured [`Event`]s with cycle timestamps (counted exactly per kind,
//!   always kept in a bounded flight-recorder ring, and sampled into the
//!   JSONL log when one streams to disk);
//! - [`Histogram`]s for DRAM request latency, MSHR residency and
//!   secure-engine pipeline depth;
//! - [`EpochSnapshot`]s every `epoch_cycles` of per-`TrafficClass` bandwidth,
//!   an IPC proxy, and cache hit rates.
//!
//! Sinks: the JSONL document [`Probe::enabled_streaming`] writes as the run
//! goes (machine-readable), [`sink::summary`] (human-readable), and
//! [`sink::flight_dump`] (last-K events for panic and error paths, installed
//! process-wide by [`Probe::install_panic_hook`]).
//!
//! Everything a probe collects is stamped in simulated cycles, never in
//! wall-clock time, so the document is a deterministic function of the run:
//! the same simulation writes the same bytes at any `--jobs` width.

pub mod epoch;
pub mod event;
pub mod hist;
pub mod sink;

pub use epoch::{EpochSnapshot, EpochTracker, PartitionEpoch};
pub use event::{Event, NUM_KINDS};
pub use hist::Histogram;

use gpu_types::TrafficClass;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex, TryLockError};

/// The JSONL log keeps every `SAMPLE_STRIDE`-th high-frequency event.
/// Low-frequency kinds (kernel boundaries, detector transitions) are never
/// sampled out, and per-kind totals stay exact regardless of the stride.
pub const SAMPLE_STRIDE: u64 = 64;

/// Number of most-recent events retained in the flight recorder.
pub const RING_CAPACITY: usize = 256;

/// Knobs controlling collection granularity.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Epoch length in cycles for periodic metric snapshots.
    pub epoch_cycles: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            epoch_cycles: 10_000,
        }
    }
}

/// Collected telemetry state for one simulation run.
pub struct Telemetry {
    cfg: TelemetryConfig,
    ring: VecDeque<(u64, Event)>,
    kind_totals: [u64; NUM_KINDS],
    sampled_out: u64,
    /// DRAM request latency (issue to completion), cycles.
    pub dram_latency: Histogram,
    /// MSHR entry residency (allocation to fill), cycles.
    pub mshr_residency: Histogram,
    /// Secure-engine pipeline depth per request (DRAM round-trips).
    pub engine_depth: Histogram,
    epochs: EpochTracker,
    dram_requests: u64,
    /// Incremental JSONL sink: when attached, logged events stream out and
    /// epoch snapshots flush as they complete — memory stays bounded over
    /// arbitrarily long runs.
    stream: Option<Box<dyn std::io::Write + Send>>,
    stream_error: Option<String>,
    epochs_streamed: usize,
    stream_done: bool,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("epochs", &self.epochs.snapshots().len())
            .field("streaming", &self.stream.is_some())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Fresh collection state.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let epochs = EpochTracker::new(cfg.epoch_cycles);
        Self {
            cfg,
            ring: VecDeque::new(),
            kind_totals: [0; NUM_KINDS],
            sampled_out: 0,
            dram_latency: Histogram::new(),
            mshr_residency: Histogram::new(),
            engine_depth: Histogram::new(),
            epochs,
            dram_requests: 0,
            stream: None,
            stream_error: None,
            epochs_streamed: 0,
            stream_done: false,
        }
    }

    /// Attaches an incremental JSONL sink.  The `meta` line is written
    /// immediately; from here on, logged events are written straight to the
    /// sink and epoch snapshots flush as each one completes.  Histogram and
    /// drops lines follow at [`finalize`].
    /// Record types may interleave — JSONL consumers dispatch on `type`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from writing the `meta` line, in which case no
    /// sink is attached.
    ///
    /// [`finalize`]: Telemetry::finalize
    pub fn attach_stream(
        &mut self,
        mut sink: Box<dyn std::io::Write + Send>,
    ) -> std::io::Result<()> {
        let mut line = String::new();
        sink::meta_json(self.cfg.epoch_cycles, &mut line);
        line.push('\n');
        sink.write_all(line.as_bytes())?;
        self.stream = Some(sink);
        Ok(())
    }

    /// First error the stream sink hit, if any (the sink is dropped on
    /// error; counting, epochs and histograms continue without it).
    pub fn stream_error(&self) -> Option<&str> {
        self.stream_error.as_deref()
    }

    /// Writes `line` (newline included) to the stream sink, dropping the
    /// sink and recording the error on failure.
    fn stream_write(&mut self, line: &str) {
        if let Some(w) = self.stream.as_mut() {
            if let Err(e) = w.write_all(line.as_bytes()) {
                self.stream_error = Some(e.to_string());
                self.stream = None;
            }
        }
    }

    /// Advances epoch time and flushes any snapshots that just completed to
    /// the stream sink.
    fn advance_epochs(&mut self, cycle: u64) {
        self.epochs.advance(cycle);
        if self.stream.is_some() {
            self.stream_completed_epochs();
        }
    }

    /// Streams every not-yet-written completed epoch snapshot.
    fn stream_completed_epochs(&mut self) {
        while self.epochs_streamed < self.epochs.snapshots().len() {
            let mut line = String::new();
            self.epochs.snapshots()[self.epochs_streamed].write_json(&mut line);
            line.push('\n');
            self.epochs_streamed += 1;
            self.stream_write(&line);
        }
    }

    /// Turns one probe hook into collected state: the only place hooks
    /// update epochs, histograms and the event log.
    pub fn apply(&mut self, hook: Hook) {
        if let Some(cycle) = hook.cycle() {
            self.advance_epochs(cycle);
        }
        let cur = self.epochs.current_mut();
        match hook {
            Hook::Event { cycle, event } => self.log_event(cycle, event),
            Hook::Traffic {
                partition,
                class,
                bytes,
                is_write,
                ..
            } => {
                cur.traffic.record(class, bytes, is_write);
                let part = cur.partition_mut(partition);
                if is_write {
                    part.write_bytes += bytes;
                } else {
                    part.read_bytes += bytes;
                }
            }
            Hook::DramRequest { latency, .. } => {
                cur.dram_requests += 1;
                self.dram_requests += 1;
                self.dram_latency.record(latency);
            }
            Hook::MshrResidency { cycles } => self.mshr_residency.record(cycles),
            Hook::EngineDepth { depth } => self.engine_depth.record(depth),
            Hook::Instructions { n, .. } => cur.instructions += n,
            Hook::Access { .. } => cur.accesses += 1,
            Hook::L2Hit { partition, .. } => {
                cur.l2_hits += 1;
                cur.partition_mut(partition).l2_hits += 1;
            }
            Hook::L2Miss { partition, .. } => {
                cur.l2_misses += 1;
                cur.partition_mut(partition).l2_misses += 1;
            }
            Hook::CtrVictim { uses, .. } => {
                cur.ctr_victims += 1;
                cur.ctr_victim_uses += uses;
            }
            Hook::BmtWalk { depth, .. } => {
                cur.bmt_walks += 1;
                cur.bmt_depth_sum += depth;
                cur.bmt_depth_max = cur.bmt_depth_max.max(depth);
            }
            Hook::PoolRemoteAccess {
                bytes,
                is_write,
                capacity_event,
                ..
            } => {
                cur.pool_cpu_accesses += 1;
                cur.pool_capacity_events += u64::from(capacity_event);
                if is_write {
                    cur.link_bytes_to_cpu += bytes;
                } else {
                    cur.link_bytes_to_gpu += bytes;
                }
            }
            Hook::PoolMigration {
                to_gpu_bytes,
                to_cpu_bytes,
                ..
            } => {
                cur.pool_migrations += 1;
                cur.link_bytes_to_gpu += to_gpu_bytes;
                if to_cpu_bytes > 0 {
                    cur.pool_spills += 1;
                    cur.link_bytes_to_cpu += to_cpu_bytes;
                }
            }
        }
    }

    /// Counts `event`, keeps it in the flight-recorder ring, and writes it
    /// to the stream sink unless sampling drops it.
    fn log_event(&mut self, cycle: u64, event: Event) {
        let idx = event.kind_index();
        self.kind_totals[idx] += 1;
        // The first occurrence of each kind is always logged so sparse kinds
        // survive sampling; after that every stride-th occurrence is kept.
        let logged = event.is_low_frequency() || self.kind_totals[idx] % SAMPLE_STRIDE == 1;
        if logged {
            if self.stream.is_some() {
                let mut line = String::new();
                event.write_json(cycle, &mut line);
                line.push('\n');
                self.stream_write(&line);
            }
        } else {
            self.sampled_out += 1;
        }
        if self.ring.len() == RING_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back((cycle, event));
    }

    /// Closes the run: flushes the trailing partial epoch and, when a
    /// stream sink is attached, its remaining snapshots plus the trailing
    /// histogram and drops lines.
    pub fn finalize(&mut self, end_cycle: u64) {
        self.epochs.finalize(end_cycle);
        if self.stream.is_some() && !self.stream_done {
            self.stream_done = true;
            self.stream_completed_epochs();
            let mut tail = String::new();
            for (name, hist) in sink::named_histograms(self) {
                sink::hist_json(name, hist, &mut tail);
                tail.push('\n');
            }
            sink::drops_json(self, &mut tail);
            tail.push('\n');
            self.stream_write(&tail);
            if let Some(w) = self.stream.as_mut() {
                if let Err(e) = w.flush() {
                    self.stream_error = Some(e.to_string());
                    self.stream = None;
                }
            }
        }
    }

    /// Most recent events (bounded ring), oldest first.
    pub fn flight_recorder(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.ring.iter()
    }

    /// Exact per-kind emission totals (unaffected by sampling).
    pub fn kind_totals(&self) -> &[u64; NUM_KINDS] {
        &self.kind_totals
    }

    /// Number of high-frequency events sampled out of the log.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Completed epoch snapshots.
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        self.epochs.snapshots()
    }

    /// Per-class traffic summed over every epoch (equals the run totals).
    pub fn total_traffic(&self) -> gpu_types::TrafficBytes {
        self.epochs.total_traffic()
    }

    /// DRAM requests completed over the whole run.
    pub fn dram_requests(&self) -> u64 {
        self.dram_requests
    }
}

impl Drop for Telemetry {
    /// Flushes whatever the stream sink has buffered.  No records are
    /// written here — a run dropped without [`Telemetry::finalize`] keeps
    /// its partial document on disk rather than losing the buffer tail,
    /// and a finalized run's flush is a no-op.
    fn drop(&mut self) {
        if let Some(w) = self.stream.as_mut() {
            let _ = w.flush();
        }
    }
}

/// Number of buffered hooks drained into [`Telemetry`] per block.
const HOOK_BLOCK: usize = 1024;

/// One probe hook: a structured event or a counter update reported by a
/// simulator layer.  [`Probe::record`] takes every hook and
/// [`Telemetry::apply`] is the one place that turns it into state.
#[derive(Clone, Debug)]
pub enum Hook {
    /// A structured event, sampled into the log (see [`SAMPLE_STRIDE`]).
    Event { cycle: u64, event: Event },
    /// DRAM traffic through `partition`, attributed to the current epoch
    /// both in the per-class totals and the per-partition breakdown.
    Traffic {
        cycle: u64,
        partition: usize,
        class: TrafficClass,
        bytes: u64,
        is_write: bool,
    },
    /// One completed DRAM request and its latency.
    DramRequest { cycle: u64, latency: u64 },
    /// How long an MSHR entry stayed allocated.
    MshrResidency { cycles: u64 },
    /// The secure-engine pipeline depth for one request.
    EngineDepth { depth: u64 },
    /// Retired instructions, toward the current epoch's IPC proxy.
    Instructions { cycle: u64, n: u64 },
    /// One warp-level memory access.
    Access { cycle: u64 },
    /// An L2 hit in `partition`.
    L2Hit { cycle: u64, partition: usize },
    /// An L2 miss in `partition`.
    L2Miss { cycle: u64, partition: usize },
    /// A counter-cache victim eviction: `uses` is how many lookup hits the
    /// evicted line had served (its hotness).
    CtrVictim { cycle: u64, uses: u64 },
    /// One BMT authentication walk that climbed `depth` levels before
    /// terminating (at a cached node or the root).
    BmtWalk { cycle: u64, depth: u64 },
    /// One data access served by the CPU-side pool: `bytes` crossed the
    /// coherent link (toward the CPU for writes, the GPU for reads); 0 when
    /// the access migrated its page, whose bytes [`Hook::PoolMigration`]
    /// carries.  `capacity_event` marks a gpu-only access to a page with no
    /// GPU backing.
    PoolRemoteAccess {
        cycle: u64,
        bytes: u64,
        is_write: bool,
        capacity_event: bool,
    },
    /// One secure page migration: `to_gpu_bytes` promoted across the link,
    /// `to_cpu_bytes` spilled the other way to make room (0 = no eviction
    /// was needed).
    PoolMigration {
        cycle: u64,
        to_gpu_bytes: u64,
        to_cpu_bytes: u64,
    },
}

impl Hook {
    /// The cycle the hook happened at; hooks without one do not advance
    /// epoch time.
    fn cycle(&self) -> Option<u64> {
        match *self {
            Hook::MshrResidency { .. } | Hook::EngineDepth { .. } => None,
            Hook::Event { cycle, .. }
            | Hook::Traffic { cycle, .. }
            | Hook::DramRequest { cycle, .. }
            | Hook::Instructions { cycle, .. }
            | Hook::Access { cycle }
            | Hook::L2Hit { cycle, .. }
            | Hook::L2Miss { cycle, .. }
            | Hook::CtrVictim { cycle, .. }
            | Hook::BmtWalk { cycle, .. }
            | Hook::PoolRemoteAccess { cycle, .. }
            | Hook::PoolMigration { cycle, .. } => Some(cycle),
        }
    }
}

/// Cheap cloneable telemetry handle threaded through the simulator.
///
/// `Probe::default()` is disabled: every hook reduces to one `Option` check.
///
/// A probe made with [`Probe::buffered`] additionally carries a preallocated
/// hook buffer shared by all of its clones: hooks append one record and the
/// buffer drains into [`Telemetry`] a block at a time, so the per-hook cost
/// on the simulation hot path is a vector push instead of epoch accounting,
/// ring rotation, and (when streaming) per-event JSON formatting.  Replay
/// happens strictly in emission order, so collected state — the streamed
/// JSONL document included — is identical to the unbuffered probe's.
#[derive(Clone, Default)]
pub struct Probe {
    inner: Option<Arc<Mutex<Telemetry>>>,
    buf: Option<Arc<Mutex<Vec<Hook>>>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Probe {
    /// A probe that records nothing (zero-cost hooks).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A probe collecting into fresh state with `cfg`.
    pub fn enabled(cfg: TelemetryConfig) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Telemetry::new(cfg)))),
            buf: None,
        }
    }

    /// A handle over the same telemetry state whose hooks append to a
    /// preallocated block buffer instead of updating [`Telemetry`] directly.
    /// All clones of the returned probe share one buffer, so records from
    /// every simulator layer drain in global emission order.  Draining
    /// happens when a block fills and before any read through
    /// [`Probe::with`] (summaries, sinks, `finalize`), so readers never see
    /// stale state.  Disabled probes return a plain clone.
    pub fn buffered(&self) -> Self {
        if self.inner.is_none() {
            return self.clone();
        }
        Self {
            inner: self.inner.clone(),
            buf: Some(Arc::new(Mutex::new(Vec::with_capacity(HOOK_BLOCK)))),
        }
    }

    /// Locks a poisoned-tolerant mutex (telemetry must survive panics in
    /// instrumented code).
    fn lock_any<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Applies queued hooks to `t` in order, keeping the buffer's capacity
    /// for reuse.
    fn replay(t: &mut Telemetry, buf: &mut Vec<Hook>) {
        for hook in buf.drain(..) {
            t.apply(hook);
        }
    }

    /// Reports one hook; a disabled probe drops it after one branch.
    #[inline]
    pub fn record(&self, hook: Hook) {
        if self.inner.is_some() {
            self.push(hook);
        }
    }

    /// Shorthand for recording a [`Hook::Event`].
    #[inline]
    pub fn emit(&self, cycle: u64, event: Event) {
        self.record(Hook::Event { cycle, event });
    }

    /// Queues `hook` (buffered mode) or applies it immediately.  Lock order
    /// is always buffer → telemetry.  Kept out of line so the disabled
    /// check in [`Probe::record`] inlines into every hook site.
    #[inline(never)]
    fn push(&self, hook: Hook) {
        if let Some(buf) = &self.buf {
            let mut b = Self::lock_any(buf);
            b.push(hook);
            if b.len() >= HOOK_BLOCK {
                if let Some(inner) = &self.inner {
                    let mut t = Self::lock_any(inner);
                    Self::replay(&mut t, &mut b);
                }
            }
        } else if let Some(inner) = &self.inner {
            Self::lock_any(inner).apply(hook);
        }
    }

    /// A probe that streams its JSONL document to `path` incrementally as
    /// the run produces events and epoch snapshots: the one way to get the
    /// document.  It is completed (histograms, drops line) and
    /// flushed by [`Probe::finalize`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating `path` or writing the leading
    /// `meta` line.
    pub fn enabled_streaming(cfg: TelemetryConfig, path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let writer = std::io::BufWriter::new(file);
        let probe = Self::enabled(cfg);
        probe
            .with(|t| t.attach_stream(Box::new(writer)))
            .expect("probe just enabled")?;
        Ok(probe)
    }

    /// First stream-sink I/O error, if streaming was on and hit one.
    pub fn stream_error(&self) -> Option<String> {
        self.with(|t| t.stream_error().map(str::to_string))
            .flatten()
    }

    /// Whether this probe records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` on the telemetry state when enabled.  A buffered probe first
    /// drains its pending hook records, so `f` always sees up-to-date state.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        if let Some(buf) = &self.buf {
            let mut b = Self::lock_any(buf);
            let mut guard = Self::lock_any(inner);
            Self::replay(&mut guard, &mut b);
            return Some(f(&mut guard));
        }
        let mut guard = Self::lock_any(inner);
        Some(f(&mut guard))
    }

    /// See [`Telemetry::finalize`].
    pub fn finalize(&self, end_cycle: u64) {
        self.with(|t| t.finalize(end_cycle));
    }

    /// Writes completed epoch snapshots as CSV to `path` (same quantities
    /// as the JSONL `epoch` lines). Returns `Ok(false)` when disabled.
    pub fn write_epoch_csv(&self, path: &Path) -> std::io::Result<bool> {
        match self.with(|t| sink::epoch_csv(t)) {
            Some(doc) => {
                std::fs::write(path, doc)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Human-readable run summary, or `None` when disabled.
    pub fn summary(&self) -> Option<String> {
        self.with(|t| sink::summary(t))
    }

    /// Flight-recorder dump (last K events), or `None` when disabled.
    pub fn flight_dump(&self) -> Option<String> {
        self.with(|t| sink::flight_dump(t))
    }

    /// Installs a process-wide panic hook that dumps the flight recorder to
    /// stderr before the previous hook runs. No-op when disabled.  Records
    /// still queued in a buffered probe's block are not part of the dump
    /// (the hook cannot safely take the buffer lock mid-panic).
    pub fn install_panic_hook(&self) {
        let Some(inner) = &self.inner else { return };
        let inner = Arc::clone(inner);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // try_lock: the panic may have unwound out of a probe hook that
            // still holds the lock on this thread; never deadlock here.
            let dump = match inner.try_lock() {
                Ok(t) => Some(sink::flight_dump(&t)),
                Err(TryLockError::Poisoned(p)) => Some(sink::flight_dump(&p.into_inner())),
                Err(TryLockError::WouldBlock) => None,
            };
            if let Some(dump) = dump {
                eprintln!("--- telemetry flight recorder ---");
                eprint!("{dump}");
                eprintln!("--- end flight recorder ---");
            }
            prev(info);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory stream sink whose bytes stay readable after the probe
    /// takes its clone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            Probe::lock_any(&self.0).extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A probe streaming its JSONL document into memory, and a reader of
    /// what it has written so far.
    pub(crate) fn streaming(cfg: TelemetryConfig) -> (Probe, impl Fn() -> String) {
        let buf = SharedBuf::default();
        let probe = Probe::enabled(cfg);
        probe
            .with(|t| t.attach_stream(Box::new(buf.clone())))
            .expect("probe just enabled")
            .expect("in-memory sink accepts the meta line");
        let doc = move || String::from_utf8(Probe::lock_any(&buf.0).clone()).expect("UTF-8");
        (probe, doc)
    }

    /// The `event` lines of `doc` whose kind is `kind`.
    fn event_lines(doc: &str, kind: &str) -> usize {
        let kind = format!("\"kind\":\"{kind}\"");
        doc.lines()
            .filter(|l| l.starts_with("{\"type\":\"event\"") && l.contains(&kind))
            .count()
    }

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::disabled();
        p.emit(0, Event::MshrStall { bank: 0 });
        p.record(Hook::Traffic {
            cycle: 0,
            partition: 0,
            class: TrafficClass::Data,
            bytes: 128,
            is_write: false,
        });
        p.finalize(10);
        assert!(!p.is_enabled());
        assert!(p.summary().is_none());
        assert!(p.flight_dump().is_none());
        assert_eq!(p.with(|_| ()), None);
    }

    #[test]
    fn sampling_keeps_totals_exact_and_first_of_each_kind() {
        let (p, doc) = streaming(TelemetryConfig::default());
        for i in 0..200u64 {
            p.emit(i, Event::L2Miss { bank: 0, addr: i });
        }
        p.emit(
            200,
            Event::KernelEnd {
                kernel: "k".into(),
                cycles: 200,
            },
        );
        p.finalize(200);
        p.with(|t| {
            assert_eq!(
                t.kind_totals()[Event::L2Miss { bank: 0, addr: 0 }.kind_index()],
                200
            );
            assert_eq!(t.sampled_out(), 196);
        });
        let doc = doc();
        // 200 misses at stride 64 -> occurrences 1, 65, 129, 193 logged.
        assert_eq!(event_lines(&doc, "l2_miss"), 4);
        // Low-frequency kinds always logged.
        assert_eq!(event_lines(&doc, "kernel_end"), 1);
    }

    #[test]
    fn ring_is_bounded() {
        let p = Probe::enabled(TelemetryConfig::default());
        for i in 0..300u64 {
            p.emit(i, Event::CtrCacheMiss { partition: 0 });
        }
        p.with(|t| {
            let ring: Vec<_> = t.flight_recorder().collect();
            assert_eq!(ring.len(), RING_CAPACITY);
            assert_eq!(ring[0].0, 300 - RING_CAPACITY as u64);
            assert_eq!(ring[RING_CAPACITY - 1].0, 299);
        });
    }

    #[test]
    fn dram_requests_match_histogram_count() {
        let p = Probe::enabled(TelemetryConfig::default());
        for i in 0..50u64 {
            p.record(Hook::DramRequest {
                cycle: i * 7,
                latency: 100 + i,
            });
        }
        p.finalize(50 * 7);
        p.with(|t| {
            assert_eq!(t.dram_requests(), 50);
            assert_eq!(t.dram_latency.count(), 50);
            let epoch_sum: u64 = t.snapshots().iter().map(|s| s.dram_requests).sum();
            assert_eq!(epoch_sum, 50);
        });
    }

    #[test]
    fn ctr_victim_hotness_lands_in_epochs() {
        let p = Probe::enabled(TelemetryConfig { epoch_cycles: 100 });
        for (cycle, uses) in [(10, 3), (20, 5), (150, 1)] {
            p.record(Hook::CtrVictim { cycle, uses });
        }
        p.finalize(150);
        p.with(|t| {
            let snaps = t.snapshots();
            assert_eq!(snaps[0].ctr_victims, 2);
            assert_eq!(snaps[0].ctr_victim_uses, 8);
            assert_eq!(snaps[1].ctr_victims, 1);
            assert_eq!(snaps[1].ctr_victim_uses, 1);
        });
    }

    #[test]
    fn bmt_walk_depths_split_per_epoch() {
        let p = Probe::enabled(TelemetryConfig { epoch_cycles: 100 });
        for (cycle, depth) in [(10, 2), (20, 5), (150, 3)] {
            p.record(Hook::BmtWalk { cycle, depth });
        }
        p.finalize(150);
        p.with(|t| {
            let snaps = t.snapshots();
            assert_eq!(snaps[0].bmt_walks, 2);
            assert_eq!(snaps[0].bmt_depth_sum, 7);
            assert_eq!(snaps[0].bmt_depth_max, 5);
            assert_eq!(snaps[1].bmt_walks, 1);
            assert_eq!(snaps[1].bmt_depth_sum, 3);
            assert_eq!(snaps[1].bmt_depth_max, 3);
        });
    }

    #[test]
    fn buffered_probe_replays_identically() {
        // The same hook sequence through a buffered and an unbuffered probe
        // must produce identical collected state (event lines, epochs,
        // histograms) — block draining only changes *when* records land.
        let (direct, direct_doc) = streaming(TelemetryConfig::default());
        let (base, buffered_doc) = streaming(TelemetryConfig::default());
        let buffered = base.buffered();
        for p in [&direct, &buffered] {
            for i in 0..3000u64 {
                // Enough volume to cross several HOOK_BLOCK boundaries.
                p.record(Hook::Access { cycle: i * 5 });
                p.record(Hook::L2Hit {
                    cycle: i * 5,
                    partition: (i % 4) as usize,
                });
                p.record(Hook::Traffic {
                    cycle: i * 5,
                    partition: 1,
                    class: TrafficClass::Data,
                    bytes: 32,
                    is_write: i % 3 == 0,
                });
                p.record(Hook::DramRequest {
                    cycle: i * 5,
                    latency: 100 + i % 50,
                });
                if i % 7 == 0 {
                    p.emit(i * 5, Event::L2Miss { bank: 0, addr: i });
                }
            }
            p.finalize(15_000);
        }
        let collect = |p: &Probe| {
            p.with(|t| {
                (
                    *t.kind_totals(),
                    t.snapshots().to_vec(),
                    t.dram_latency.count(),
                )
            })
            .expect("enabled")
        };
        let a = collect(&direct);
        let b = collect(&buffered);
        assert_eq!(a.0, b.0, "kind totals diverged");
        assert_eq!(a.1, b.1, "epochs diverged");
        assert_eq!(a.2, b.2, "histogram counts diverged");
        // The documents agree byte for byte.
        let (a, b) = (direct_doc(), buffered_doc());
        assert_eq!(a, b, "streamed documents diverged");
        assert!(event_lines(&a, "l2_miss") > 1);
    }

    #[test]
    fn buffered_clones_share_one_queue() {
        let base = Probe::enabled(TelemetryConfig::default());
        let a = base.buffered();
        let b = a.clone();
        // Interleave below the block size; order must survive the drain.
        a.emit(1, Event::MshrStall { bank: 1 });
        b.emit(2, Event::MshrStall { bank: 2 });
        a.emit(3, Event::MshrStall { bank: 3 });
        a.with(|t| {
            // The flight-recorder ring sees every emission (no sampling), so
            // it reflects the replayed global order.
            let cycles: Vec<u64> = t.flight_recorder().map(|&(c, _)| c).collect();
            assert_eq!(cycles, vec![1, 2, 3]);
        });
    }

    #[test]
    fn probe_clones_share_state() {
        let p = Probe::enabled(TelemetryConfig::default());
        let q = p.clone();
        p.record(Hook::Traffic {
            cycle: 5,
            partition: 2,
            class: TrafficClass::Mac,
            bytes: 32,
            is_write: true,
        });
        q.record(Hook::Traffic {
            cycle: 9,
            partition: 2,
            class: TrafficClass::Mac,
            bytes: 32,
            is_write: false,
        });
        p.with(|t| assert_eq!(t.total_traffic().class_total(TrafficClass::Mac), 64));
    }

    #[test]
    fn partition_breakdown_tracks_traffic_and_l2() {
        let p = Probe::enabled(TelemetryConfig { epoch_cycles: 100 });
        p.record(Hook::Traffic {
            cycle: 10,
            partition: 3,
            class: TrafficClass::Data,
            bytes: 128,
            is_write: false,
        });
        p.record(Hook::Traffic {
            cycle: 20,
            partition: 3,
            class: TrafficClass::Mac,
            bytes: 32,
            is_write: true,
        });
        p.record(Hook::L2Hit {
            cycle: 30,
            partition: 1,
        });
        p.record(Hook::L2Miss {
            cycle: 40,
            partition: 3,
        });
        p.finalize(50);
        p.with(|t| {
            let snap = &t.snapshots()[0];
            // Grown to the highest touched index; untouched ones are zero.
            assert_eq!(snap.partitions.len(), 4);
            assert_eq!(snap.partitions[3].read_bytes, 128);
            assert_eq!(snap.partitions[3].write_bytes, 32);
            assert_eq!(snap.partitions[3].l2_misses, 1);
            assert_eq!(snap.partitions[1].l2_hits, 1);
            assert_eq!(snap.partitions[0], PartitionEpoch::default());
            // Per-partition totals agree with the epoch-wide counters.
            let (r, w): (u64, u64) = snap
                .partitions
                .iter()
                .fold((0, 0), |(r, w), p| (r + p.read_bytes, w + p.write_bytes));
            assert_eq!(r + w, snap.total_bytes());
            let mut json = String::new();
            snap.write_json(&mut json);
            assert!(json.contains("\"partitions\":[{\"read_bytes\":0"));
            assert!(json
                .contains("{\"read_bytes\":128,\"write_bytes\":32,\"l2_hits\":0,\"l2_misses\":1}"));
        });
    }
}
