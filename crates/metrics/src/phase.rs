//! Phase self-profiler: scoped RAII timers that tile wall time exclusively
//! across the simulator pipeline phases.
//!
//! Each thread keeps a stack of active guards.  Entering a nested phase
//! first accrues the elapsed time to the parent phase, so at any instant
//! exactly one phase is charged — phase times sum to the wall time covered
//! by the outermost guards instead of double-counting nested work.
//!
//! Disabled by default: [`guard`] is one relaxed load when profiling is off,
//! so instrumented hot paths cost nothing in normal runs.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Simulator pipeline phases instrumented with [`guard`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Synthetic trace generation (workload profiles).
    TraceGen,
    /// Access issue, warp scheduling and engine setup outside the caches.
    AccessIssue,
    /// L2 lookup, MSHR, and writeback handling.
    L2,
    /// DRAM fabric modeling (queueing, channel timing).
    Fabric,
    /// Counter / MAC / BMT metadata walks in the secure engines.
    MetadataWalk,
    /// AES pad generation and MAC arithmetic.
    Aes,
}

/// Every phase, in display order.
pub const ALL_PHASES: [Phase; 6] = [
    Phase::TraceGen,
    Phase::AccessIssue,
    Phase::L2,
    Phase::Fabric,
    Phase::MetadataWalk,
    Phase::Aes,
];

const NUM_PHASES: usize = ALL_PHASES.len();

impl Phase {
    /// Stable snake_case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::TraceGen => "trace_gen",
            Phase::AccessIssue => "access_issue",
            Phase::L2 => "l2",
            Phase::Fabric => "fabric",
            Phase::MetadataWalk => "metadata_walk",
            Phase::Aes => "aes",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

static PROFILING: AtomicBool = AtomicBool::new(false);
static NANOS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];
static CALLS: [AtomicU64; NUM_PHASES] = [const { AtomicU64::new(0) }; NUM_PHASES];

thread_local! {
    /// Stack of (phase index, charge-from instant) for this thread.
    static STACK: RefCell<Vec<(usize, Instant)>> = const { RefCell::new(Vec::new()) };
}

/// Turns the profiler on (guards start measuring).
pub fn enable_profiling() {
    PROFILING.store(true, Relaxed);
}

/// Sets the profiling gate explicitly.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Relaxed);
}

/// Zeroes all accumulated phase data.
pub fn reset_phases() {
    for i in 0..NUM_PHASES {
        NANOS[i].store(0, Relaxed);
        CALLS[i].store(0, Relaxed);
    }
}

/// Scoped phase timer; created by [`guard`], accrues on drop.
pub struct PhaseGuard {
    active: bool,
}

/// Enters `phase` until the returned guard drops.  While profiling is
/// disabled this is a single relaxed load.
#[inline]
pub fn guard(phase: Phase) -> PhaseGuard {
    if !PROFILING.load(Relaxed) {
        return PhaseGuard { active: false };
    }
    let now = Instant::now();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(top) = stack.last_mut() {
            // Charge the parent for the time up to this nesting point.
            NANOS[top.0].fetch_add(now.duration_since(top.1).as_nanos() as u64, Relaxed);
            top.1 = now;
        }
        stack.push((phase.index(), now));
    });
    PhaseGuard { active: true }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let now = Instant::now();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some((idx, start)) = stack.pop() {
                NANOS[idx].fetch_add(now.duration_since(start).as_nanos() as u64, Relaxed);
                CALLS[idx].fetch_add(1, Relaxed);
                if let Some(parent) = stack.last_mut() {
                    // Parent resumes being charged from now.
                    parent.1 = now;
                }
            }
        });
    }
}

/// One phase's accumulated totals.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStat {
    pub phase: Phase,
    pub nanos: u64,
    pub calls: u64,
}

/// Accumulated totals for every phase (including zero entries).
pub fn snapshot() -> Vec<PhaseStat> {
    ALL_PHASES
        .iter()
        .map(|&phase| PhaseStat {
            phase,
            nanos: NANOS[phase.index()].load(Relaxed),
            calls: CALLS[phase.index()].load(Relaxed),
        })
        .collect()
}

/// Sum of all phase nanos.
pub fn total_nanos() -> u64 {
    NANOS.iter().map(|n| n.load(Relaxed)).sum()
}

/// Renders a sorted per-phase table (used by `shm run --profile`).
pub fn report() -> String {
    use std::fmt::Write as _;
    let mut stats: Vec<PhaseStat> = snapshot().into_iter().filter(|s| s.calls > 0).collect();
    stats.sort_by_key(|s| std::cmp::Reverse(s.nanos));
    let total: u64 = stats.iter().map(|s| s.nanos).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>7} {:>12}",
        "phase", "time_ms", "pct", "calls"
    );
    for s in &stats {
        let pct = if total > 0 {
            100.0 * s.nanos as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12.3} {:>6.1}% {:>12}",
            s.phase.label(),
            s.nanos as f64 / 1e6,
            pct,
            s.calls
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:>12.3} {:>6.1}%",
        "total",
        total as f64 / 1e6,
        if total > 0 { 100.0 } else { 0.0 }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Profiling state is process-global; the tests serialize on this.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let _g = test_lock();
        set_profiling(false);
        reset_phases();
        for _ in 0..1000 {
            let _guard = guard(Phase::L2);
        }
        assert_eq!(total_nanos(), 0);
        assert!(snapshot().iter().all(|s| s.calls == 0));
    }

    #[test]
    fn nested_guards_tile_time_exclusively() {
        let _g = test_lock();
        reset_phases();
        set_profiling(true);
        let wall = Instant::now();
        {
            let _outer = guard(Phase::AccessIssue);
            std::thread::sleep(Duration::from_millis(10));
            {
                let _inner = guard(Phase::L2);
                std::thread::sleep(Duration::from_millis(10));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let wall = wall.elapsed().as_nanos() as u64;
        set_profiling(false);
        let stats = snapshot();
        let issue = stats
            .iter()
            .find(|s| s.phase == Phase::AccessIssue)
            .unwrap();
        let l2 = stats.iter().find(|s| s.phase == Phase::L2).unwrap();
        assert_eq!(issue.calls, 1);
        assert_eq!(l2.calls, 1);
        assert!(l2.nanos >= 9_000_000, "inner phase undercounted: {l2:?}");
        assert!(
            issue.nanos >= 14_000_000,
            "outer phase lost time to the nested guard: {issue:?}"
        );
        // Exclusive tiling: phases sum to (at most) the covered wall time.
        let sum = total_nanos();
        assert!(sum <= wall, "phases double-counted: {sum} > wall {wall}");
        assert!(
            sum >= wall * 9 / 10,
            "phases missed wall time: {sum} vs {wall}"
        );
        reset_phases();
    }
}
