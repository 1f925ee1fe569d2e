//! Chaos-campaign regression: the fault gauntlet must be deterministic
//! (same seed + schedule, same classification, same tables), must never
//! report a silent divergence, and a coordinator killed mid-sweep must
//! resume from its job journal to byte-identical rows.

use std::path::PathBuf;

use gpu_mem_sim::DesignPoint;
use shm_bench::chaos::{render_rows, run_chaos_campaign, CHAOS_DESIGNS};
use shm_bench::dist::DistSweepConfig;
use shm_bench::{Backend, Executor, Journal, Sweep};
use sim_dist::DistOptions;

const SCALE: f64 = 0.01;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shm_chaos_campaign_{}_{tag}", std::process::id()))
}

#[test]
fn smoke_campaign_has_zero_silent_divergence() {
    let dir = scratch_dir("smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_chaos_campaign("smoke", 7, SCALE, &dir).expect("campaign runs");
    assert_eq!(report.scenarios.len(), 8, "smoke schedule is 8 scenarios");
    assert_eq!(
        report.silent_divergences(),
        0,
        "silent divergence:\n{}",
        report.render()
    );
    // The render must be greppable: every scenario line carries the
    // CI-checked silent marker and none may be true.
    let rendered = report.render();
    assert_eq!(rendered.matches("silent:false").count(), 8, "{rendered}");
    assert!(!rendered.contains("silent:true"), "{rendered}");
    // The flight recorder landed next to the campaign.
    let flight = dir.join("chaos_flight_smoke_7.jsonl");
    let dump = std::fs::read_to_string(&flight).expect("flight recorder written");
    assert_eq!(dump.lines().count(), 8, "one JSON line per scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_and_schedule_classify_identically_twice() {
    let dir_a = scratch_dir("det-a");
    let dir_b = scratch_dir("det-b");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    let a = run_chaos_campaign("smoke", 11, SCALE, &dir_a).expect("first run");
    let b = run_chaos_campaign("smoke", 11, SCALE, &dir_b).expect("second run");

    assert_eq!(a.golden_table, b.golden_table, "golden tables must agree");
    assert_eq!(a.scenarios.len(), b.scenarios.len());
    for (sa, sb) in a.scenarios.iter().zip(&b.scenarios) {
        assert_eq!(sa.name, sb.name, "scenario order is fixed");
        assert_eq!(
            sa.verdict, sb.verdict,
            "scenario {} classified differently across runs",
            sa.name
        );
    }
    assert_eq!(a.silent_divergences(), 0, "{}", a.render());
    assert_eq!(b.silent_divergences(), 0, "{}", b.render());
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn coordinator_crash_resume_is_byte_identical() {
    let dir = scratch_dir("journal");
    let _ = std::fs::remove_dir_all(&dir);

    let golden_sweep = Sweep {
        backend: Backend::Local(Executor::new(1)),
        ..Sweep::suite(CHAOS_DESIGNS, SCALE)
    };
    let golden = golden_sweep.run(|_, job| job.run()).expect("golden sweep");
    let golden_text = render_rows(&golden_sweep.rows(golden.complete().expect("complete")));

    let mut sweep = Sweep {
        backend: Backend::Dist(DistSweepConfig {
            bind: "127.0.0.1:0".into(),
            self_workers: 2,
            opts: DistOptions {
                connect_wait_ms: 10_000,
                heartbeat_timeout_ms: 2_000,
                read_timeout_ms: 25,
                retry_budget: 64,
                dispatch_timeout_ms: 3_000,
                ..DistOptions::default()
            },
        }),
        ..Sweep::suite(CHAOS_DESIGNS, SCALE)
    };

    // Phase 1: the coordinator dies (cancel) after 3 journal appends.
    sweep.journal = Some(Journal::figure(&dir, "coord", &sweep.jobs, Some(3)));
    let crashed = sweep.run(|_, job| job.run()).expect("crash phase");
    if let Some(stats) = crashed.complete() {
        // Sweep outran the crash budget: it must still match golden.
        assert_eq!(render_rows(&sweep.rows(stats)), golden_text);
    } else {
        assert!(crashed.executed >= 3, "crash budget resolved first");

        // Phase 2: a fresh coordinator resumes from the journal.
        sweep.journal = Some(Journal::figure(&dir, "coord", &sweep.jobs, None));
        let resumed = sweep.run(|_, job| job.run()).expect("resume phase");
        assert!(resumed.reused >= 3, "journaled jobs replay, not re-run");
        let stats = resumed.complete().expect("resume completes");
        assert_eq!(
            render_rows(&sweep.rows(stats)),
            golden_text,
            "resumed tables must be byte-identical to the golden run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_designs_match_dist_determinism_designs() {
    // The campaign compares against the same design pair the determinism
    // suite locks down; drifting one without the other would silently
    // weaken the golden comparison.
    assert_eq!(CHAOS_DESIGNS, &[DesignPoint::Pssm, DesignPoint::Shm]);
}
