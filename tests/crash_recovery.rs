//! Resumable sweeps and degraded runs: the job journal must make
//! interrupted sweeps resumable to byte-identical tables and refuse a
//! different sweep configuration, and the quarantine recovery policy must
//! stay idempotent and observable under repeated violations of the same
//! region.

use gpu_mem_sim::DesignPoint;
use shm_bench::{format_table, BenchRow, Executor, Journal, Sweep, SweepRun};
use shm_runtime::{BufferKind, Context, RecoveryPolicy};
use shm_telemetry::{Probe, TelemetryConfig};
use std::path::{Path, PathBuf};

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
    let interrupted_sweep = journaled(DESIGNS, 1, &crash_dir, Some(3));
    let crashed = run(&interrupted_sweep);
    assert!(
        crashed.complete().is_none(),
        "interrupted sweep yields no rows"
    );
    assert_eq!(crashed.executed, 3);
    assert_eq!(crashed.completed_labels.len(), 3);
    let journal = interrupted_sweep
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
