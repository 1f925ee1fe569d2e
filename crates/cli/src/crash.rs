//! `shm crash`: power cuts inside a seeded secure-memory workload.

use shm_bench::cli::{Args, Failure};
use shm_recovery::{crash_sweep, run_crash, CrashConfig};
use shm_telemetry::Probe;

/// `shm crash`: cut power at a micro-op cycle inside a seeded secure-memory
/// workload, run log-replay recovery, and classify the outcome.  Any silent
/// divergence from the golden run breaks the crash-consistency claim (exit
/// code 3, like a missed tamper in `shm attack`).
pub fn cmd_crash(args: &Args) -> Result<(), Failure> {
    let seed = args.get_u64("seed")?.unwrap_or(7);
    let ops = args.get_u64("ops")?.unwrap_or(12) as usize;
    let flush = args.get_u64("flush")?.unwrap_or(1) as usize;
    if args.flag("sweep") {
        let report = crash_sweep(seed, ops, flush);
        print!("{}", report.render());
        if report.total_silent_divergences() > 0 {
            return Err(Failure::integrity(
                format!(
                    "crash sweep (seed {seed}) served {} silently diverged read(s)",
                    report.total_silent_divergences()
                ),
                &Probe::disabled(),
            ));
        }
        return Ok(());
    }
    let at_cycle = args
        .get_u64("at-cycle")?
        .ok_or_else(|| Failure::usage("need --at-cycle N (or --sweep to cover every cycle)"))?;
    let cfg = CrashConfig {
        ops,
        flush_interval: flush,
        ..CrashConfig::smoke(seed, at_cycle)
    };
    let total_cycles = cfg.total_cycles();
    let (n_ops, flush_interval) = (cfg.ops, cfg.flush_interval);
    let report = run_crash(cfg);
    println!(
        "crash at cycle {at_cycle}/{total_cycles} (seed {seed}, {n_ops} ops, flush every {flush_interval}):"
    );
    println!(
        "  committed ops {}  torn phase {}  torn addr {}",
        report.committed_ops,
        report.torn_phase,
        report
            .torn_addr
            .map_or("none".to_string(), |a| format!("{a:#x}")),
    );
    for (addr, outcome) in &report.regions {
        println!("  region {addr:#06x}  {outcome:?}");
    }
    println!(
        "  outcome: {}  verified {}  silent divergences {}",
        report.outcome.label(),
        report.verified_regions,
        report.silent_divergences
    );
    if report.silent_divergences > 0 {
        return Err(Failure::integrity(
            format!(
                "crash at cycle {at_cycle} (seed {seed}) served {} silently diverged read(s)",
                report.silent_divergences
            ),
            &Probe::disabled(),
        ));
    }
    Ok(())
}
