//! Distributed-sweep determinism: the sim-dist cluster must be an
//! implementation detail.  A suite run on a loopback cluster — even one
//! that loses a worker mid-sweep — must be byte-identical to `--jobs 1`,
//! a worker with a different configuration must be rejected at hello, and
//! a journal must resume across backends in both directions (cluster
//! entries carry worker attributions).

use std::path::{Path, PathBuf};
use std::thread;

use gpu_mem_sim::DesignPoint;
use gpu_types::SimStats;
use shm_bench::dist::{
    dist_config_hash, dist_worker_handler, serve_worker, DistSweepConfig, SimJob,
};
use shm_bench::{format_table, Backend, BenchRow, Executor, Journal, Sweep, SweepRun};
use shm_recovery::JournalCodec;
use sim_dist::{run_worker, Coordinator, DistError, DistJob, DistOptions, WorkerOptions};
use sim_exec::CancelToken;

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// A process-unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shm_dist_determinism_{}_{tag}", std::process::id()))
}

fn quick_opts() -> DistOptions {
    DistOptions {
        connect_wait_ms: 5_000,
        heartbeat_timeout_ms: 2_000,
        read_timeout_ms: 20,
        retry_budget: 16,
        ..DistOptions::default()
    }
}

fn worker_opts(id: &str) -> WorkerOptions {
    WorkerOptions {
        worker_id: id.into(),
        jobs: Some(1),
        heartbeat_interval_ms: 50,
        read_timeout_ms: 20,
        reconnect_base_ms: 20,
        reconnect_max_ms: 100,
        max_reconnect_attempts: 5,
        ..WorkerOptions::default()
    }
}

fn loopback(self_workers: usize) -> Backend {
    Backend::Dist(DistSweepConfig {
        bind: "127.0.0.1:0".into(),
        self_workers,
        opts: quick_opts(),
    })
}

fn local() -> Backend {
    Backend::Local(Executor::new(1))
}

/// The suite sweep on `backend`, journaled as figure "dist" in `dir` when
/// one is given.
fn sweep(backend: Backend, journal: Option<(&Path, Option<usize>)>) -> Sweep {
    let mut sweep = Sweep {
        backend,
        ..Sweep::suite(DESIGNS, SCALE)
    };
    sweep.journal =
        journal.map(|(dir, crash_after)| Journal::figure(dir, "dist", &sweep.jobs, crash_after));
    sweep
}

fn run(sweep: &Sweep) -> SweepRun {
    sweep.run(|_, job| job.run()).expect("sweep")
}

fn rows(sweep: &Sweep) -> Vec<BenchRow> {
    sweep.rows(run(sweep).complete().expect("sweep completes"))
}

fn render(rows: &[BenchRow]) -> String {
    let header: Vec<&str> = DESIGNS.iter().map(|d| d.name()).collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                DESIGNS.iter().map(|d| row.norm_ipc(*d)).collect(),
            )
        })
        .collect();
    format_table("dist determinism", &header, &table)
}

fn assert_rows_identical(serial: &[BenchRow], dist: &[BenchRow], what: &str) {
    assert_eq!(serial.len(), dist.len(), "{what}: row count");
    for (s, d) in serial.iter().zip(dist) {
        assert_eq!(s.name, d.name, "{what}: row order must match submission");
        assert_eq!(s.stats, d.stats, "{what}: {} stats diverged", s.name);
    }
    assert_eq!(render(serial), render(dist), "{what}: rendered table text");
}

/// The exact job list a suite sweep ships to the cluster.
fn suite_jobs() -> Vec<DistJob> {
    Sweep::suite(DESIGNS, SCALE)
        .jobs
        .iter()
        .map(SimJob::dist_job)
        .collect()
}

#[test]
fn loopback_cluster_matches_serial_sweep() {
    let serial = rows(&sweep(local(), None));
    let dist_sweep = sweep(loopback(2), None);
    let dist_run = run(&dist_sweep);
    let summary = dist_run.cluster.as_ref().expect("cluster accounting");
    assert!(!summary.degraded, "both self-workers must connect");
    assert_eq!(summary.workers.len(), 2, "both workers must register");
    let total: u64 = summary.workers.iter().map(|w| w.jobs_done).sum();
    // +1 design: the suite always carries the Baseline column the rows
    // normalize against.
    assert_eq!(total as usize, serial.len() * (DESIGNS.len() + 1));
    let dist = dist_sweep.rows(dist_run.complete().expect("dist sweep completes"));
    assert_rows_identical(&serial, &dist, "loopback cluster");
}

#[test]
fn killed_worker_reassigns_without_changing_results() {
    let serial = rows(&sweep(local(), None));
    let hash = dist_config_hash();
    let coord = Coordinator::bind("127.0.0.1:0", hash, quick_opts()).expect("bind");
    let addr = coord.local_addr().to_string();

    // One worker dies after two results and never reconnects; the survivor
    // (plus reassignment) must still complete every job.
    let mut dying = worker_opts("doomed");
    dying.disconnect_after_jobs = Some(2);
    dying.max_reconnect_attempts = 0;
    let (a1, a2) = (addr.clone(), addr);
    let w1 = thread::spawn(move || run_worker(&a1, hash, dying, dist_worker_handler));
    let w2 =
        thread::spawn(move || run_worker(&a2, hash, worker_opts("survivor"), dist_worker_handler));

    let jobs = suite_jobs();
    let report = coord
        .run(jobs.clone(), &CancelToken::new())
        .expect("cluster run");
    assert!(report.is_clean(), "every job must finish: {report:?}");
    let survivor = report
        .workers
        .iter()
        .find(|w| w.id == "survivor")
        .expect("survivor registered");
    assert!(survivor.jobs_done > 0);

    // Submission-order results decode to exactly the serial stats.
    for (job, outcome) in jobs.iter().zip(&report.results) {
        let payload = outcome
            .as_ref()
            .expect("job ran")
            .as_ref()
            .expect("job succeeded");
        let stats = SimStats::decode_journal(payload).expect("decodable payload");
        let (bench, design) = job.label.split_once(" under ").expect("label shape");
        let row = serial
            .iter()
            .find(|r| r.name == bench)
            .expect("serial row exists");
        assert_eq!(
            stats, row.stats[design],
            "{} diverged after worker loss",
            job.label
        );
    }
    let _ = w1.join().expect("doomed thread");
    assert!(w2.join().expect("survivor thread").is_ok());
}

#[test]
fn config_hash_mismatch_is_rejected_at_hello() {
    // Coordinator for a *different* configuration than this build's suite.
    let wrong_hash = dist_config_hash() ^ 0xDEAD_BEEF;
    let coord = Coordinator::bind("127.0.0.1:0", wrong_hash, quick_opts()).expect("bind");
    let addr = coord.local_addr().to_string();
    let jobs = vec![DistJob {
        label: "echo".into(),
        payload: "payload".into(),
    }];
    let run = thread::spawn(move || coord.run(jobs, &CancelToken::new()));

    // `serve_worker` presents this build's real config hash — mismatch.
    let mut opts = worker_opts("stale");
    opts.max_reconnect_attempts = 0;
    let err = serve_worker(&addr, opts).expect_err("mismatched hash must be rejected");
    match err {
        DistError::Rejected { reason } => {
            assert!(reason.contains("config hash mismatch"), "reason: {reason}");
        }
        other => panic!("expected Rejected at hello, got {other}"),
    }

    // A worker with the matching hash still drains the sweep.
    let good = thread::spawn(move || {
        run_worker(&addr, wrong_hash, worker_opts("fresh"), |_, payload| {
            payload.to_string()
        })
    });
    let report = run.join().expect("coordinator thread").expect("sweep");
    assert!(report.is_clean());
    assert_eq!(report.workers.len(), 1, "rejected worker never registers");
    assert!(good.join().expect("worker thread").is_ok());
}

#[test]
fn dist_journal_crash_resumes_locally_to_identical_rows() {
    let golden = rows(&sweep(local(), None));
    // Both directions: a cluster sweep crashed after 3 journal appends
    // resumes locally, and a local one resumes on the cluster.
    for (crash_on, resume_on, tag) in [
        (loopback(2), local(), "dist-then-local"),
        (local(), loopback(2), "local-then-dist"),
    ] {
        let dir = scratch_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);

        // Rows withheld; every job that finished is journaled.
        let crash_sweep = sweep(crash_on, Some((&dir, Some(3))));
        let crashed = run(&crash_sweep);
        assert!(
            crashed.complete().is_none(),
            "{tag}: interrupted sweep yields no rows"
        );
        assert!(
            crashed.executed >= 3,
            "{tag}: at least the crash budget completed"
        );
        // The per-worker counts name only the results the sweep kept, not
        // the ones the crash switch dropped.
        if let Some(cluster) = &crashed.cluster {
            let kept: u64 = cluster.workers.iter().map(|w| w.jobs_done).sum();
            assert_eq!(
                kept as usize, crashed.executed,
                "{tag}: per-worker job counts add up to the journaled jobs"
            );
        }

        // Same hash on either backend: the resume picks the journal up and
        // finishes to byte-identical rows.
        let resume_sweep = sweep(resume_on, Some((&dir, None)));
        let resumed = run(&resume_sweep);
        assert_eq!(
            resumed.reused, crashed.executed,
            "{tag}: journaled jobs reused"
        );
        let resumed_rows = resume_sweep.rows(resumed.complete().expect("resume completed"));
        assert_rows_identical(&golden, &resumed_rows, tag);

        // Every entry the cluster wrote names the worker that produced it;
        // local entries carry no attribution.
        let from_cluster = if crashed.cluster.is_some() {
            crashed.executed
        } else {
            resumed.executed
        };
        let journal = resume_sweep.journal.as_ref().expect("journaled");
        let text = std::fs::read_to_string(&journal.path).expect("journal readable");
        let attributed = text
            .lines()
            .filter(|l| l.contains("\"worker\":\"local-"))
            .count();
        assert_eq!(
            attributed, from_cluster,
            "{tag}: every cluster-journaled entry carries its worker"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
