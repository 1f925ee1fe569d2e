//! Observability must be a pure overlay: metrics, spans and the phase
//! profiler may never change simulation results, and the span tree a
//! distributed sweep produces must be structurally identical to the one
//! the local executor emits for the same job list.

use std::sync::Mutex;

use gpu_mem_sim::DesignPoint;
use shm_bench::dist::{DistSweepConfig, SimJob};
use shm_bench::{Backend, BenchRow, Executor, Sweep, SweepRun};
use shm_metrics::phase::Phase;
use shm_telemetry::span::{build_job_spans, job_span_id, JobSpanInput, TraceReport, ROOT_SPAN_ID};
use sim_dist::{DistOptions, WorkerOptions};

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// Metrics enablement, phase profiling and env knobs are process-global;
/// every test in this binary serializes on this lock and restores the
/// global state it touched.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// The suite sweep on a loopback cluster of `self_workers` workers.
fn dist_sweep(self_workers: usize) -> Sweep {
    Sweep {
        backend: Backend::Dist(DistSweepConfig {
            bind: "127.0.0.1:0".into(),
            self_workers,
            opts: DistOptions {
                connect_wait_ms: 5_000,
                heartbeat_timeout_ms: 2_000,
                read_timeout_ms: 20,
                retry_budget: 16,
                ..DistOptions::default()
            },
        }),
        ..Sweep::suite(DESIGNS, SCALE)
    }
}

fn run(sweep: &Sweep) -> SweepRun {
    sweep.run(|_, job| job.run()).expect("sweep")
}

/// The suite sweep on one local worker.
fn serial_rows() -> Vec<BenchRow> {
    let sweep = Sweep {
        backend: Backend::Local(Executor::new(1)),
        ..Sweep::suite(DESIGNS, SCALE)
    };
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

#[test]
fn dist_and_local_span_trees_have_identical_shape() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(false);
    let sweep = dist_sweep(2);
    let labels: Vec<String> = sweep.jobs.iter().map(|j| j.label()).collect();

    let run = run(&sweep);
    let cluster = run.cluster.as_ref().expect("cluster accounting");
    assert!(!cluster.degraded);
    assert_ne!(run.trace_id, 0, "coordinator mints a trace id");
    assert_eq!(
        run.timings.len(),
        labels.len(),
        "every job reports a timing"
    );

    let cycles_of = |index: usize| -> u64 { run.stats[index].as_ref().map_or(0, |s| s.cycles) };

    // Dist spans: coordinator-observed timings, cycles from the sweep.
    let dist_inputs: Vec<JobSpanInput> = run
        .timings
        .iter()
        .map(|t| JobSpanInput {
            index: t.index,
            label: labels[t.index].clone(),
            worker: t.worker.clone(),
            dispatch_ms: t.dispatch_ms,
            end_ms: t.end_ms,
            run_ns: t.run_ns,
            cycles: cycles_of(t.index),
        })
        .collect();
    let dist_spans = build_job_spans(run.trace_id, "sweep suite", &dist_inputs);

    // Local spans: same job list, synthetic local timings.
    let local_inputs: Vec<JobSpanInput> = labels
        .iter()
        .enumerate()
        .map(|(i, label)| JobSpanInput {
            index: i,
            label: label.clone(),
            worker: "local".into(),
            dispatch_ms: i as u64,
            end_ms: i as u64 + 3,
            run_ns: 2_000_000,
            cycles: cycles_of(i),
        })
        .collect();
    let local_spans = build_job_spans(0xB0B0_1235, "sweep suite", &local_inputs);

    // Identical tree shape: same span ids, same parents, same labels, in
    // the same submission order — regardless of which backend ran the jobs.
    assert_eq!(dist_spans.len(), local_spans.len());
    for (d, l) in dist_spans.iter().zip(&local_spans) {
        assert_eq!(d.span_id, l.span_id);
        assert_eq!(d.parent, l.parent);
        assert_eq!(d.label, l.label);
    }
    assert_eq!(dist_spans[0].span_id, ROOT_SPAN_ID);
    for (i, s) in dist_spans[1..].iter().enumerate() {
        assert_eq!(s.span_id, job_span_id(i));
        assert_eq!(s.parent, Some(ROOT_SPAN_ID));
    }

    // Per-job cycle totals reconcile with the sweep's own stats.
    let report = TraceReport::from_spans(dist_spans).remove(0);
    assert!(report.check_invariants().is_empty());
    let stats_cycles: u64 = (0..labels.len()).map(cycles_of).sum();
    assert!(stats_cycles > 0);
    assert_eq!(report.total_cycles(), stats_cycles);
    assert_eq!(report.jobs.len(), labels.len());
}

#[test]
fn coordinator_serves_live_metrics_during_dist_sweep() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(true);
    let server = shm_metrics::MetricsServer::bind("127.0.0.1:0").expect("bind /metrics");
    let addr = server.local_addr().to_string();

    let run = run(&dist_sweep(2));
    assert!(!run.cluster.expect("cluster accounting").degraded);

    let body = shm_metrics::fetch_metrics(&addr).expect("scrape");
    server.shutdown();
    shm_metrics::set_enabled(false);

    let samples = shm_metrics::parse_exposition(&body);
    let completed = samples
        .iter()
        .find(|s| s.name == "shm_jobs_completed_total")
        .expect("job-completion counter exported");
    assert!(completed.value >= Sweep::suite(DESIGNS, SCALE).jobs.len() as f64);
    // The coordinator polled both loopback workers for stats and exported
    // their gauges labelled by worker id.
    for worker in ["local-0", "local-1"] {
        assert!(
            samples.iter().any(|s| s.name == "shm_worker_completed"
                && s.labels.iter().any(|(k, v)| k == "worker" && v == worker)),
            "per-worker series for {worker} missing:\n{body}"
        );
    }
    assert!(
        samples
            .iter()
            .any(|s| s.name == "shm_frame_tx_bytes_total" && s.value > 0.0),
        "frame byte accounting missing"
    );
}

#[test]
fn heartbeat_knobs_come_from_environment() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());

    std::env::set_var(sim_dist::HEARTBEAT_TIMEOUT_ENV, "1234");
    std::env::set_var(sim_dist::HEARTBEAT_INTERVAL_ENV, "77");
    let coord = DistOptions::from_env();
    let worker = WorkerOptions::from_env();
    std::env::remove_var(sim_dist::HEARTBEAT_TIMEOUT_ENV);
    std::env::remove_var(sim_dist::HEARTBEAT_INTERVAL_ENV);
    assert_eq!(coord.heartbeat_timeout_ms, 1234);
    assert_eq!(worker.heartbeat_interval_ms, 77);

    // Unset / malformed values fall back to the defaults silently.
    std::env::set_var(sim_dist::HEARTBEAT_TIMEOUT_ENV, "not-a-number");
    let fallback = DistOptions::from_env();
    std::env::remove_var(sim_dist::HEARTBEAT_TIMEOUT_ENV);
    assert_eq!(
        fallback.heartbeat_timeout_ms,
        DistOptions::default().heartbeat_timeout_ms
    );
    assert_eq!(
        WorkerOptions::from_env().heartbeat_interval_ms,
        WorkerOptions::default().heartbeat_interval_ms
    );
}
