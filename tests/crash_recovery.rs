//! Crash consistency end-to-end: the model-level power-cut matrix must
//! classify every outcome with zero silent divergence, the harness-level
//! job journal must make interrupted sweeps resumable to byte-identical
//! tables, and the quarantine recovery policy must stay idempotent and
//! observable under repeated violations of the same region.

use gpu_mem_sim::DesignPoint;
use shm_bench::{format_table, BenchRow, Executor, Journal, Sweep, SweepRun};
use shm_recovery::{crash_sweep, run_crash, CrashConfig, CrashOutcome, RegionOutcome};
use shm_runtime::{BufferKind, Context, RecoveryPolicy};
use shm_telemetry::{Probe, TelemetryConfig};
use std::path::{Path, PathBuf};

const SEED: u64 = 7;
const OPS: usize = 12;

/// Every micro-op cut point of the smoke workload, inclusive of the
/// clean-boundary cut after the final write.
fn cut_points() -> std::ops::RangeInclusive<u64> {
    0..=(OPS as u64 * shm_recovery::MICRO_OPS_PER_WRITE)
}

#[test]
fn golden_crash_matrix_classifies_every_cut_with_zero_silent_divergence() {
    let sweep = crash_sweep(SEED, OPS, 1);
    assert_eq!(sweep.reports.len(), cut_points().count());
    assert_eq!(sweep.total_silent_divergences(), 0);
    // Strict per-write flushing journals every write before it starts, so
    // no tear can outrun the log: nothing is unrecoverable.
    assert_eq!(sweep.count(CrashOutcome::UnrecoverableDetected), 0);
    // Golden seeded matrix: counts pinned for seed 7 / 12 ops / flush 1.
    assert_eq!(sweep.count(CrashOutcome::Clean), 13);
    assert_eq!(sweep.count(CrashOutcome::Recovered), 36);
    for report in &sweep.reports {
        assert_eq!(
            report.silent_divergences, 0,
            "cut at cycle {} diverged silently",
            report.config.at_cycle
        );
        assert!(
            report.verified_regions >= report.regions.len(),
            "every region must be re-verified after recovery"
        );
        for &(addr, outcome) in &report.regions {
            assert_ne!(
                outcome,
                RegionOutcome::Quarantined,
                "region {addr:#x} quarantined under strict WAL (cycle {})",
                report.config.at_cycle
            );
        }
    }
}

#[test]
fn crash_matrix_is_deterministic_per_seed() {
    for seed in [SEED, 11, 42] {
        let a = crash_sweep(seed, OPS, 1).render();
        let b = crash_sweep(seed, OPS, 1).render();
        assert_eq!(a, b, "seed {seed} matrix must be reproducible");
    }
}

#[test]
fn group_commit_tear_is_detected_never_silent() {
    // Flush every 4 writes: a tear inside an unflushed epoch has no durable
    // log tail to replay, so recovery must quarantine — loudly, not
    // silently.
    let sweep = crash_sweep(SEED, OPS, 4);
    assert_eq!(sweep.total_silent_divergences(), 0);
    let unrecoverable = sweep.count(CrashOutcome::UnrecoverableDetected);
    assert!(
        unrecoverable > 0,
        "group commit must expose unflushed-epoch tears"
    );
    for report in &sweep.reports {
        if report.outcome == CrashOutcome::UnrecoverableDetected {
            assert!(
                report
                    .regions
                    .iter()
                    .any(|&(_, o)| o == RegionOutcome::Quarantined),
                "unrecoverable run must quarantine at least one region"
            );
        }
    }
}

#[test]
fn boundary_cuts_are_clean_for_every_flush_interval() {
    for flush_interval in [1, 2, 4] {
        for write in 0..=OPS as u64 {
            let report = run_crash(CrashConfig {
                at_cycle: write * shm_recovery::MICRO_OPS_PER_WRITE,
                ops: OPS,
                flush_interval,
                ..CrashConfig::smoke(SEED, 0)
            });
            assert_eq!(
                report.outcome,
                CrashOutcome::Clean,
                "cut between writes (after write {write}, flush {flush_interval}) tore nothing"
            );
            assert_eq!(report.silent_divergences, 0);
        }
    }
}

const DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];
const SCALE: f64 = 0.02;

/// A process-unique scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shm_crash_recovery_{}_{tag}", std::process::id()))
}

/// The suite sweep over `designs` on `jobs` local workers, journaled as
/// figure "resume" in `dir`.
fn journaled(
    designs: &[DesignPoint],
    jobs: usize,
    dir: &Path,
    crash_after_jobs: Option<usize>,
) -> Sweep {
    let mut sweep = Sweep {
        executor: Executor::new(jobs),
        ..Sweep::suite(designs, SCALE)
    };
    sweep.journal = Some(Journal::figure(
        dir,
        "resume",
        &sweep.jobs,
        crash_after_jobs,
    ));
    sweep
}

fn run(sweep: &Sweep) -> SweepRun {
    sweep.run(|_, job| job.run()).expect("sweep")
}

fn journal_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .expect("journal readable")
        .lines()
        .count()
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
    format_table("crash-recovery resume", &header, &table)
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_tables() {
    let golden_dir = scratch_dir("golden");
    let crash_dir = scratch_dir("crash");
    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);

    // Uninterrupted reference run.
    let golden_sweep = journaled(DESIGNS, 2, &golden_dir, None);
    let golden = run(&golden_sweep);
    let golden_rows = golden_sweep.rows(golden.complete().expect("golden sweep ran to completion"));
    let total_jobs = golden.executed;
    assert!(golden.reused == 0 && total_jobs > 3);

    // Crash after 3 fresh completions (single worker: nothing in flight to
    // drain, so exactly 3 land): rows withheld, completions durable.
    let crash_sweep = journaled(DESIGNS, 1, &crash_dir, Some(3));
    let crashed = run(&crash_sweep);
    assert!(
        crashed.complete().is_none(),
        "interrupted sweep yields no rows"
    );
    assert_eq!(crashed.executed, 3);
    assert_eq!(crashed.completed_labels.len(), 3);
    let journal = crash_sweep
        .journal
        .as_ref()
        .expect("journaled")
        .path
        .clone();
    // Meta line + one line per completed job, nothing torn.
    assert_eq!(journal_lines(&journal), 4);

    // Resume: completed jobs are loaded, not re-executed.
    let resume_sweep = journaled(DESIGNS, 2, &crash_dir, None);
    let resumed = run(&resume_sweep);
    assert_eq!(resumed.reused, 3, "journaled jobs must not re-run");
    assert_eq!(resumed.executed, total_jobs - 3);
    assert_eq!(journal_lines(&journal), total_jobs + 1);
    let resumed_rows = resume_sweep.rows(resumed.complete().expect("resumed sweep completes"));
    assert_eq!(
        render(&resumed_rows),
        render(&golden_rows),
        "resumed table must be byte-identical to the uninterrupted run"
    );

    // A second resume finds everything journaled and executes nothing.
    let idle = run(&resume_sweep);
    assert_eq!(idle.reused, total_jobs);
    assert_eq!(idle.executed, 0);
    assert_eq!(journal_lines(&journal), total_jobs + 1);

    let _ = std::fs::remove_dir_all(&golden_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn journal_rejects_a_different_sweep_configuration() {
    let dir = scratch_dir("confighash");
    let _ = std::fs::remove_dir_all(&dir);
    run(&journaled(DESIGNS, 2, &dir, Some(1)));
    let err = journaled(&[DesignPoint::Shm, DesignPoint::ShmVL2], 2, &dir, None)
        .run(|_, job| job.run())
        .expect_err("changed design list must be rejected");
    assert!(
        format!("{err}").contains("config"),
        "error should name the config hash: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn tamper(ctx: &mut Context, addr: u64, flip: u8) {
    let (mut ct, _) = ctx.secure_memory_mut().snapshot_block(addr);
    ct[0] ^= flip;
    ctx.secure_memory_mut().tamper_ciphertext(addr, ct);
}

#[test]
fn quarantine_absorbs_repeated_violations_on_the_same_region() {
    let probe = Probe::enabled(TelemetryConfig::default());
    let mut ctx = Context::new(31)
        .with_recovery(RecoveryPolicy::Quarantine)
        .with_probe(probe.clone());
    let x = ctx.alloc(256, BufferKind::Scratch).expect("alloc");
    ctx.memcpy_to_device(x, &[7u8; 256]).expect("h2d");
    let addr = ctx.device_address(x).expect("addr");

    // First violation: quarantine the block, continue degraded.
    tamper(&mut ctx, addr, 0x01);
    ctx.launch("first", |k| {
        assert_eq!(k.load_u8(x, 0)?, 0);
        Ok(())
    })
    .expect("quarantine never aborts");
    assert!(ctx.is_degraded());
    assert_eq!(ctx.violations().len(), 1);

    // Idempotence: re-reading the quarantined block serves zeros without
    // recording a fresh violation, and stays degraded (monotone until a
    // repairing store).
    for round in 0..3 {
        ctx.launch("reread", |k| {
            assert_eq!(k.load_u8(x, 0)?, 0);
            Ok(())
        })
        .expect("degraded reread");
        assert!(ctx.is_degraded(), "round {round} must stay degraded");
        assert_eq!(
            ctx.violations().len(),
            1,
            "round {round} re-read of a quarantined block is not a new violation"
        );
    }

    // Repair, then violate the same region again: a second, distinct
    // violation on the same address must be recorded and re-quarantined.
    ctx.launch("repair", |k| {
        for i in 0..128 {
            k.store_u8(x, i, 4)?;
        }
        Ok(())
    })
    .expect("repairing store lifts the quarantine");
    assert!(!ctx.is_degraded());
    tamper(&mut ctx, addr, 0x80);
    ctx.launch("second", |k| {
        assert_eq!(k.load_u8(x, 0)?, 0);
        Ok(())
    })
    .expect("second quarantine");
    assert!(ctx.is_degraded());
    assert_eq!(ctx.violations().len(), 2);
    assert!(ctx.violations().iter().all(|v| v.addr == addr));

    // Exactly one telemetry event per recorded violation — quarantined
    // re-reads are silent.
    let dump = probe.flight_dump().expect("probe enabled");
    let events = dump
        .lines()
        .filter(|l| l.contains("integrity_violation"))
        .count();
    assert_eq!(events, 2, "one event per violation:\n{dump}");
    assert_eq!(
        dump.lines()
            .filter(|l| l.contains("\"action\":\"quarantine\""))
            .count(),
        2
    );
}
