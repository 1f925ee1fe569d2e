//! Observability must be a pure overlay: the phase profiler may never
//! change simulation results, and it must account for the run it times.

use std::sync::Mutex;

use gpu_mem_sim::DesignPoint;
use shm_bench::{BenchRow, Executor, SimJob, Sweep};
use shm_metrics::phase::Phase;

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// Phase profiling is process-global; every test in this binary
/// serializes on this lock and restores the global state it touched.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// The suite sweep on one worker.
fn serial_rows() -> Vec<BenchRow> {
    let sweep = Sweep {
        executor: Executor::new(1),
        ..Sweep::suite(DESIGNS, SCALE)
    };
    let run = sweep.run(|_, job| job.run()).expect("sweep");
    sweep.rows(run.complete().expect("sweep completes"))
}

#[test]
fn observability_disabled_run_matches_enabled_run_exactly() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::phase::set_profiling(false);
    let plain = serial_rows();

    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let observed = serial_rows();
    shm_metrics::phase::set_profiling(false);

    assert_eq!(plain.len(), observed.len());
    for (p, o) in plain.iter().zip(&observed) {
        assert_eq!(p.name, o.name);
        assert_eq!(
            p.stats, o.stats,
            "{}: observability changed results",
            p.name
        );
    }
}

#[test]
fn profiler_disabled_path_records_nothing() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::phase::set_profiling(false);
    shm_metrics::phase::reset_phases();
    let _ = serial_rows();
    assert_eq!(
        shm_metrics::phase::total_nanos(),
        0,
        "disabled profiler must not accrue time"
    );
    assert!(shm_metrics::phase::snapshot().iter().all(|s| s.calls == 0));
}

#[test]
fn profiler_phases_cover_the_simulation() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let started = std::time::Instant::now();
    let _ = serial_rows();
    let wall = started.elapsed().as_nanos() as u64;
    let covered = shm_metrics::phase::total_nanos();
    shm_metrics::phase::set_profiling(false);

    assert!(covered > 0, "profiled sweep must accrue phase time");
    assert!(
        covered <= wall,
        "exclusive phase tiling can never exceed wall time ({covered} > {wall})"
    );
    let report = shm_metrics::phase::report();
    assert!(report.contains("access_issue"), "report:\n{report}");
    assert!(report.contains("trace_gen"), "report:\n{report}");
}

#[test]
fn shm_job_verifies_macs_inside_the_metadata_walk_phase() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let profile = shm_bench::scaled_suite(SCALE)
        .into_iter()
        .next()
        .expect("non-empty suite");
    let job = SimJob::suite(&profile, DesignPoint::Shm);
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let stats = job.run();
    let walks = shm_metrics::phase::snapshot()
        .into_iter()
        .find(|s| s.phase == Phase::MetadataWalk)
        .map_or(0, |s| s.calls);
    shm_metrics::phase::set_profiling(false);

    assert!(walks > 0, "an SHM job must enter the metadata-walk phase");
    // One walk per protected request, the MAC it computes or verifies:
    // every write-back is one, and so is every L2 read miss, a subset of
    // `l2_misses` (write allocations skip the engine).
    assert!(
        stats.l2_writebacks <= walks && walks <= stats.l2_misses + stats.l2_writebacks,
        "{walks} metadata walks for {} write-backs and {} L2 misses",
        stats.l2_writebacks,
        stats.l2_misses
    );
}
