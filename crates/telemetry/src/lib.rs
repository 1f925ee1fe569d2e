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
//! - [`EpochSnapshot`]s, each what the run's `SimStats` counted over
//!   `epoch_cycles` cycles: per-class DRAM bytes, instructions, cache hits
//!   and misses, pool counters, every value the run reports.
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

pub use epoch::EpochSnapshot;
pub use event::{Event, NUM_KINDS};
pub use hist::Histogram;

use gpu_types::SimStats;
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
    snapshots: Vec<EpochSnapshot>,
    /// The run's running totals at the start of the open epoch; once the
    /// run has ended, its end-of-run statistics.
    totals: SimStats,
    /// First cycle of the open epoch.
    epoch_start: u64,
    run_ended: bool,
    /// Incremental JSONL sink: when attached, logged events stream out and
    /// epoch snapshots flush as they close.  Events are not kept beyond
    /// the flight-recorder ring; snapshots are, for the CSV export.
    stream: Option<Box<dyn std::io::Write + Send>>,
    stream_error: Option<String>,
    stream_done: bool,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("epochs", &self.snapshots.len())
            .field("streaming", &self.stream.is_some())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Fresh collection state; `epoch_cycles` is clamped to at least 1.
    pub fn new(mut cfg: TelemetryConfig) -> Self {
        cfg.epoch_cycles = cfg.epoch_cycles.max(1);
        Self {
            cfg,
            ring: VecDeque::new(),
            kind_totals: [0; NUM_KINDS],
            sampled_out: 0,
            dram_latency: Histogram::new(),
            mshr_residency: Histogram::new(),
            engine_depth: Histogram::new(),
            snapshots: Vec::new(),
            totals: SimStats::default(),
            epoch_start: 0,
            run_ended: false,
            stream: None,
            stream_error: None,
            stream_done: false,
        }
    }

    /// Attaches an incremental JSONL sink.  The `meta` line is written
    /// immediately; from here on, logged events are written straight to the
    /// sink and epoch snapshots as each one closes.  Histogram and drops
    /// lines follow at [`finalize`].
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

    /// The first cycle past the open epoch: the simulator hands over its
    /// running totals at the first access it issues at or past it.
    /// `u64::MAX` once the run has ended.
    pub fn next_epoch_at(&self) -> u64 {
        if self.run_ended {
            u64::MAX
        } else {
            self.epoch_start + self.cfg.epoch_cycles
        }
    }

    /// Closes every epoch that ends before `cycle`, given the run's
    /// running `totals` at `cycle`, and returns the next boundary.  All
    /// of the activity goes to the first epoch closed; any further ones
    /// are empty.  The `cycles` of `totals` is not read: a closed epoch's
    /// share of the cycle count is its length.  An earlier `cycle` than
    /// the open epoch's end closes nothing.
    pub fn close_epochs(&mut self, cycle: u64, totals: &SimStats) -> u64 {
        while cycle >= self.next_epoch_at() {
            let boundary = self.next_epoch_at();
            let at_boundary = SimStats {
                cycles: boundary,
                ..totals.clone()
            };
            self.close_epoch(boundary - 1, at_boundary);
        }
        self.next_epoch_at()
    }

    /// Ends the run at `totals.cycles`, where its end-of-run statistics
    /// are `totals`: the epochs that end before it close, the last one
    /// closes at it, and the document is finalized.  Later calls only
    /// finalize.
    pub fn end_run(&mut self, totals: &SimStats) {
        if !self.run_ended {
            self.close_epochs(totals.cycles, totals);
            self.close_epoch(totals.cycles, totals.clone());
            self.run_ended = true;
        }
        self.finalize();
    }

    /// Closes the open epoch at `end_cycle`, where the run's running
    /// totals are `totals`, and streams it.
    fn close_epoch(&mut self, end_cycle: u64, totals: SimStats) {
        let snapshot = EpochSnapshot {
            index: self.snapshots.len() as u64,
            start_cycle: self.epoch_start,
            end_cycle,
            stats: totals.since(&self.totals),
        };
        self.totals = totals;
        self.epoch_start = end_cycle + 1;
        if self.stream.is_some() {
            let mut line = String::new();
            snapshot.write_json(&mut line);
            line.push('\n');
            self.stream_write(&line);
        }
        self.snapshots.push(snapshot);
    }

    /// Turns one probe hook into collected state: the only place hooks
    /// update the histograms and the event log.
    fn apply(&mut self, hook: Hook) {
        match hook {
            Hook::Event { cycle, event } => self.log_event(cycle, event),
            Hook::DramLatency { cycles } => self.dram_latency.record(cycles),
            Hook::MshrResidency { cycles } => self.mshr_residency.record(cycles),
            Hook::EngineDepth { depth } => self.engine_depth.record(depth),
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

    /// Closes the document: when a stream sink is attached, writes the
    /// trailing histogram and drops lines and flushes.  Idempotent; record
    /// nothing after calling it.
    pub fn finalize(&mut self) {
        if self.stream.is_some() && !self.stream_done {
            self.stream_done = true;
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

    /// Closed epoch snapshots.
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.snapshots
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

/// One probe hook: a structured event or a histogram sample reported by a
/// simulator layer.  [`Probe::record`] takes every hook and
/// `Telemetry::apply` is the one place that turns it into state.  Counts
/// are not hooks: they are [`SimStats`] fields, which reach the epochs
/// through [`Probe::close_epochs`].
#[derive(Clone, Debug)]
pub enum Hook {
    /// A structured event, sampled into the log (see [`SAMPLE_STRIDE`]).
    Event { cycle: u64, event: Event },
    /// One DRAM request's latency, issue to completion.
    DramLatency { cycles: u64 },
    /// How long an MSHR entry stayed allocated.
    MshrResidency { cycles: u64 },
    /// The secure-engine pipeline depth for one request.
    EngineDepth { depth: u64 },
}

/// Cheap cloneable telemetry handle threaded through the simulator.
///
/// `Probe::default()` is disabled: every hook reduces to one `Option` check.
/// All clones of an enabled probe feed one shared [`Telemetry`], which
/// belongs to one simulation run.
#[derive(Clone, Default)]
pub struct Probe {
    inner: Option<Arc<Mutex<Telemetry>>>,
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

    /// Reports one hook; a disabled probe drops it after one branch.
    #[inline]
    pub fn record(&self, hook: Hook) {
        if let Some(inner) = &self.inner {
            Self::apply(inner, hook);
        }
    }

    /// Shorthand for recording a [`Hook::Event`].
    #[inline]
    pub fn emit(&self, cycle: u64, event: Event) {
        self.record(Hook::Event { cycle, event });
    }

    /// Applies `hook` under the lock.  Kept out of line so the disabled
    /// check in [`Probe::record`] inlines into every hook site.
    #[inline(never)]
    fn apply(inner: &Mutex<Telemetry>, hook: Hook) {
        Self::lock_any(inner).apply(hook);
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

    /// Runs `f` on the telemetry state when enabled.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(f(&mut Self::lock_any(inner)))
    }

    /// See [`Telemetry::next_epoch_at`]; `u64::MAX` when disabled, so the
    /// simulator's boundary check never fires.
    pub fn next_epoch_at(&self) -> u64 {
        self.with(|t| t.next_epoch_at()).unwrap_or(u64::MAX)
    }

    /// See [`Telemetry::close_epochs`]; `u64::MAX` when disabled.
    pub fn close_epochs(&self, cycle: u64, totals: &SimStats) -> u64 {
        self.with(|t| t.close_epochs(cycle, totals))
            .unwrap_or(u64::MAX)
    }

    /// See [`Telemetry::end_run`].
    pub fn end_run(&self, totals: &SimStats) {
        self.with(|t| t.end_run(totals));
    }

    /// See [`Telemetry::finalize`].
    pub fn finalize(&self) {
        self.with(Telemetry::finalize);
    }

    /// Writes the epoch snapshots as CSV to `path` (same quantities as
    /// the JSONL `epoch` lines). Returns `Ok(false)` when disabled.
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
    /// stderr before the previous hook runs. No-op when disabled.
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
        p.record(Hook::DramLatency { cycles: 40 });
        assert_eq!(p.next_epoch_at(), u64::MAX);
        assert_eq!(p.close_epochs(10, &SimStats::default()), u64::MAX);
        p.end_run(&SimStats::default());
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
        p.finalize();
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
        // The summary's request count is the run's `SimStats` value and
        // the histogram counts the latency hooks: one per request.
        let p = Probe::enabled(TelemetryConfig::default());
        for i in 0..50u64 {
            p.record(Hook::DramLatency { cycles: 100 + i });
        }
        p.end_run(&SimStats {
            cycles: 350,
            dram_requests: 50,
            ..SimStats::default()
        });
        let summary = p.summary().expect("enabled");
        assert!(summary.contains("dram requests: 50"), "{summary}");
        assert!(summary.contains("dram_latency    n=50 "), "{summary}");
    }

    #[test]
    fn ctr_victim_hotness_lands_in_epochs() {
        // Through the probe: running totals handed over at cycles 120 and
        // 150, then the run's end at 180, split into three epochs of 100
        // cycles (the last one short).
        let p = Probe::enabled(TelemetryConfig { epoch_cycles: 100 });
        let totals = |victims, uses| SimStats {
            ctr_victims: victims,
            ctr_victim_uses: uses,
            ..SimStats::default()
        };
        assert_eq!(p.next_epoch_at(), 100);
        assert_eq!(p.close_epochs(120, &totals(2, 8)), 200);
        // Not yet at the next boundary: nothing closes.
        assert_eq!(p.close_epochs(150, &totals(3, 9)), 200);
        p.end_run(&SimStats {
            cycles: 180,
            ..totals(3, 9)
        });
        assert_eq!(p.next_epoch_at(), u64::MAX);
        p.with(|t| {
            let snaps = t.snapshots();
            assert_eq!(snaps.len(), 2);
            assert_eq!(
                (snaps[0].stats.ctr_victims, snaps[0].stats.ctr_victim_uses),
                (2, 8)
            );
            assert_eq!(
                (snaps[1].stats.ctr_victims, snaps[1].stats.ctr_victim_uses),
                (1, 1)
            );
            assert_eq!((snaps[1].start_cycle, snaps[1].end_cycle), (100, 180));
            assert_eq!(snaps[0].stats.cycles + snaps[1].stats.cycles, 180);
        });
    }

    #[test]
    fn bmt_walk_depths_split_per_epoch() {
        // Each epoch line streams as its epoch closes, between the events
        // around it, and carries the walk counters.
        let (p, doc) = streaming(TelemetryConfig { epoch_cycles: 100 });
        p.emit(0, Event::KernelStart { kernel: "k".into() });
        p.emit(
            20,
            Event::BmtWalk {
                partition: 0,
                depth: 5,
            },
        );
        let walks = |walks, depth_sum| SimStats {
            bmt_walks: walks,
            bmt_depth_sum: depth_sum,
            ..SimStats::default()
        };
        p.close_epochs(150, &walks(2, 7));
        p.emit(
            160,
            Event::KernelEnd {
                kernel: "k".into(),
                cycles: 160,
            },
        );
        p.end_run(&SimStats {
            cycles: 160,
            ..walks(3, 10)
        });
        let doc = doc();
        let types: Vec<&str> = doc.lines().filter_map(|l| l.split('"').nth(3)).collect();
        assert_eq!(
            types,
            [
                "meta", "event", "event", "epoch", "event", "epoch", "hist", "hist", "hist",
                "drops"
            ]
        );
        let epochs: Vec<&str> = doc.lines().filter(|l| l.contains("\"epoch\"")).collect();
        assert!(epochs[0].contains("\"bmt_walks\":2,\"bmt_depth_sum\":7"));
        assert!(epochs[1].contains("\"bmt_walks\":1,\"bmt_depth_sum\":3"));
        assert!(!doc.contains("bmt_depth_max"));
    }

    #[test]
    fn probe_clones_share_state() {
        let p = Probe::enabled(TelemetryConfig::default());
        let q = p.clone();
        p.record(Hook::DramLatency { cycles: 32 });
        q.record(Hook::DramLatency { cycles: 64 });
        p.with(|t| assert_eq!(t.dram_latency.count(), 2));
        q.with(|t| assert_eq!(t.dram_latency.max(), 64));
    }
}
