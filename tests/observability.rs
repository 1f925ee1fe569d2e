//! Observability must be a pure overlay: metrics, spans and the phase
//! profiler may never change simulation results, and the span tree a sweep
//! produces must have the same shape at any worker count.

use std::sync::Mutex;

use gpu_mem_sim::DesignPoint;
use shm_bench::{BenchRow, Executor, SimJob, Sweep, SweepRun};
use shm_metrics::phase::Phase;
use shm_telemetry::span::{
    build_job_spans, job_span_id, JobSpanInput, SpanEvent, TraceReport, ROOT_SPAN_ID,
};

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// Metrics enablement and phase profiling are process-global; every test
/// in this binary serializes on this lock and restores the global state it
/// touched.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// The suite sweep on `jobs` workers.
fn sweep(jobs: usize) -> Sweep {
    Sweep {
        executor: Executor::new(jobs),
        ..Sweep::suite(DESIGNS, SCALE)
    }
}

fn run(sweep: &Sweep) -> SweepRun {
    sweep.run(|_, job| job.run()).expect("sweep")
}

/// The suite sweep on one worker.
fn serial_rows() -> Vec<BenchRow> {
    let sweep = sweep(1);
    sweep.rows(run(&sweep).complete().expect("sweep completes"))
}

#[test]
fn observability_disabled_run_matches_enabled_run_exactly() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(false);
    shm_metrics::phase::set_profiling(false);
    let plain = serial_rows();

    shm_metrics::set_enabled(true);
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let observed = serial_rows();
    shm_metrics::set_enabled(false);
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
fn real_run_populates_core_metric_series() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(true);
    let _ = serial_rows();
    let body = shm_metrics::render_prometheus();
    shm_metrics::set_enabled(false);

    for series in [
        "shm_accesses_total",
        "shm_l2_hits_total",
        "shm_l2_misses_total",
        "shm_mac_verifies_total",
    ] {
        assert!(
            body.contains(&format!("# TYPE {series} counter")),
            "{series} TYPE missing"
        );
        let sample = shm_metrics::parse_exposition(&body)
            .into_iter()
            .find(|s| s.name == series)
            .unwrap_or_else(|| panic!("{series} absent from exposition"));
        assert!(sample.value > 0.0, "{series} never incremented");
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
    // The registry is process-wide, so compare the counter around the job.
    let verifies = || {
        shm_metrics::parse_exposition(&shm_metrics::render_prometheus())
            .into_iter()
            .find(|s| s.name == "shm_mac_verifies_total")
            .map_or(0.0, |s| s.value)
    };
    shm_metrics::set_enabled(true);
    shm_metrics::phase::set_profiling(true);
    shm_metrics::phase::reset_phases();
    let before = verifies();
    let _ = job.run();
    let after = verifies();
    let walks = shm_metrics::phase::snapshot()
        .into_iter()
        .find(|s| s.phase == Phase::MetadataWalk)
        .map_or(0, |s| s.calls);
    shm_metrics::set_enabled(false);
    shm_metrics::phase::set_profiling(false);

    assert!(
        after > before,
        "an SHM job must count MAC verifies ({before} -> {after})"
    );
    assert!(walks > 0, "an SHM job must enter the metadata-walk phase");
}

/// The span tree of one run of `sweep`, built as `shm sweep --telemetry`
/// builds it.
fn span_tree(sweep: &Sweep) -> (SweepRun, Vec<SpanEvent>) {
    let run = run(sweep);
    let inputs: Vec<JobSpanInput> = run
        .timings
        .iter()
        .map(|t| JobSpanInput {
            index: t.index,
            label: sweep.jobs[t.index].label(),
            worker: "local".into(),
            dispatch_ms: t.dispatch_ms,
            end_ms: t.end_ms,
            run_ns: t.run_ns,
            cycles: run.stats[t.index].as_ref().map_or(0, |s| s.cycles),
        })
        .collect();
    let spans = build_job_spans(run.trace_id, "sweep suite", &inputs);
    (run, spans)
}

#[test]
fn span_trees_have_identical_shape_at_any_worker_count() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(false);
    let parallel = sweep(2);
    let (run, spans) = span_tree(&parallel);
    let (_, serial_spans) = span_tree(&sweep(1));
    assert_ne!(run.trace_id, 0, "every run mints a trace id");
    assert_eq!(
        run.timings.len(),
        parallel.jobs.len(),
        "every job reports a timing"
    );

    // Identical tree shape: same span ids, same parents, same labels, in
    // the same submission order, whatever the worker count.
    assert_eq!(spans.len(), serial_spans.len());
    for (p, s) in spans.iter().zip(&serial_spans) {
        assert_eq!(p.span_id, s.span_id);
        assert_eq!(p.parent, s.parent);
        assert_eq!(p.label, s.label);
    }
    assert_eq!(spans[0].span_id, ROOT_SPAN_ID);
    for (i, s) in spans[1..].iter().enumerate() {
        assert_eq!(s.span_id, job_span_id(i));
        assert_eq!(s.parent, Some(ROOT_SPAN_ID));
    }

    // Per-job cycle totals reconcile with the sweep's own stats.
    let report = TraceReport::from_spans(spans).remove(0);
    assert!(report.check_invariants().is_empty());
    let stats_cycles: u64 = run.stats.iter().flatten().map(|s| s.cycles).sum();
    assert!(stats_cycles > 0);
    assert_eq!(report.total_cycles(), stats_cycles);
    assert_eq!(report.jobs.len(), parallel.jobs.len());
}

#[test]
fn metrics_server_serves_a_local_sweeps_counters() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(true);
    let server = shm_metrics::MetricsServer::bind("127.0.0.1:0").expect("bind /metrics");
    let addr = server.local_addr().to_string();

    let _ = serial_rows();

    let body = shm_metrics::fetch_metrics(&addr).expect("scrape");
    server.shutdown();
    shm_metrics::set_enabled(false);

    let accesses = shm_metrics::parse_exposition(&body)
        .into_iter()
        .find(|s| s.name == "shm_accesses_total")
        .unwrap_or_else(|| panic!("shm_accesses_total not served:\n{body}"));
    assert!(
        accesses.value > 0.0,
        "the sweep's accesses were not counted"
    );
}
