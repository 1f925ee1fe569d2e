//! Parallel-executor determinism: the worker pool must be an
//! implementation detail — running the benchmark suite on one worker or
//! many must produce byte-identical results.

use gpu_mem_sim::DesignPoint;
use shm_bench::{format_table, BenchRow, Sweep};
use sim_exec::Executor;

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// The suite sweep over `designs` at `scale` on `jobs` local workers.
fn suite_rows(designs: &[DesignPoint], scale: f64, jobs: usize) -> Vec<BenchRow> {
    let sweep = Sweep {
        executor: Executor::new(jobs),
        ..Sweep::suite(designs, scale)
    };
    let run = sweep.run(|_, job| job.run()).expect("sweep");
    sweep.rows(run.complete().expect("sweep completes"))
}

#[test]
fn suite_stats_identical_across_worker_counts() {
    let serial = suite_rows(DESIGNS, SCALE, 1);
    let parallel = suite_rows(DESIGNS, SCALE, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "row order must match submission order");
        let s_designs: Vec<_> = s.stats.keys().collect();
        let p_designs: Vec<_> = p.stats.keys().collect();
        assert_eq!(s_designs, p_designs);
        for (design, stats) in &s.stats {
            assert_eq!(
                stats, &p.stats[design],
                "{}/{design}: SimStats diverged between jobs=1 and jobs=4",
                s.name
            );
        }
    }
}

#[test]
fn rendered_table_identical_across_worker_counts() {
    let render = |jobs| {
        let rows = suite_rows(DESIGNS, SCALE, jobs);
        let table: Vec<(String, Vec<f64>)> = rows
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    DESIGNS.iter().map(|&d| r.norm_ipc(d)).collect(),
                )
            })
            .collect();
        format_table(
            "determinism probe",
            &DESIGNS.iter().map(|d| d.name()).collect::<Vec<_>>(),
            &table,
        )
    };
    assert_eq!(
        render(1),
        render(4),
        "repro table text must not depend on worker count"
    );
}

#[test]
fn panic_capture_reports_the_failing_pair() {
    let pairs = [("fdtd2d", "PSSM"), ("kmeans", "SHM"), ("lbm", "SHM")];
    let err = Executor::new(2)
        .try_map(
            &pairs,
            |_, &(bench, design)| format!("{bench} under {design}"),
            |_, &(bench, design)| {
                if bench == "kmeans" {
                    panic!("injected failure in {bench}/{design}");
                }
                bench.len()
            },
        )
        .expect_err("the kmeans job panics");
    let msg = err.to_string();
    assert!(
        msg.contains("kmeans under SHM"),
        "error must name the failing (benchmark, design) pair: {msg}"
    );
    assert!(
        msg.contains("injected failure"),
        "error must carry the panic payload: {msg}"
    );
    assert!(
        !msg.contains("fdtd2d") && !msg.contains("lbm"),
        "healthy jobs must not be reported as failed: {msg}"
    );
}
