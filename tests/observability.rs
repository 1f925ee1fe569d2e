//! Observability must be a pure overlay: metrics and the phase profiler
//! may never change simulation results, and the `/metrics` endpoint serves
//! the counters a sweep bumps.

use std::io::{Read, Write};
use std::sync::Mutex;

use gpu_mem_sim::DesignPoint;
use shm_bench::{BenchRow, Executor, SimJob, Sweep};
use shm_metrics::phase::Phase;

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// Metrics enablement and phase profiling are process-global; every test
/// in this binary serializes on this lock and restores the global state it
/// touched.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// The value of the unlabelled counter `series` in exposition `text`.
fn sample(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .map(|v| v.parse().expect("integer sample"))
}

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
        let value =
            sample(&body, series).unwrap_or_else(|| panic!("{series} absent from exposition"));
        assert!(value > 0, "{series} never incremented");
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
    let verifies =
        || sample(&shm_metrics::render_prometheus(), "shm_mac_verifies_total").unwrap_or(0);
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
fn metrics_server_serves_a_local_sweeps_counters() {
    let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
    shm_metrics::set_enabled(true);
    let server = shm_metrics::MetricsServer::bind("127.0.0.1:0").expect("bind /metrics");

    let _ = serial_rows();

    let mut conn = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    server.shutdown();
    shm_metrics::set_enabled(false);

    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let accesses = sample(&response, "shm_accesses_total")
        .unwrap_or_else(|| panic!("shm_accesses_total not served:\n{response}"));
    assert!(accesses > 0, "the sweep's accesses were not counted");
}
