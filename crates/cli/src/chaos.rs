//! `shm chaos`: the seeded cluster fault gauntlet.

use shm_bench::cli::{telemetry_probe, Args, Failure};

use crate::obs::MetricsGuard;

/// `shm chaos`: run the distributed sweep through the deterministic fault
/// gauntlet (chaos proxy, byzantine workers, coordinator crash-resume) and
/// verify every scenario ends in byte-identical merged tables or a clean
/// labelled failure.  Any silent divergence exits with code 4.
pub fn cmd_chaos(args: &Args) -> Result<(), Failure> {
    let schedule = args.get("schedule").unwrap_or("smoke").to_string();
    if schedule != "smoke" && schedule != "full" {
        return Err(Failure::usage(format!(
            "unknown schedule {schedule:?} (want smoke|full)"
        )));
    }
    let seed = args.get_u64("seed")?.unwrap_or(7);
    let scale = args.get_f64("scale")?.unwrap_or(0.02);
    if scale <= 0.0 {
        return Err(Failure::usage(format!("bad --scale {scale}")));
    }
    let dir = args
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("shm-chaos-{}", std::process::id())));
    let probe = telemetry_probe(args)?;
    let metrics = MetricsGuard::from_args(args)?;

    eprintln!("chaos campaign: schedule={schedule} seed={seed} scale={scale}");
    let report = shm_bench::chaos::run_chaos_campaign(&schedule, seed, scale, &dir)
        .map_err(|e| Failure::runtime(format!("chaos campaign: {e}"), &probe))?;
    metrics.finish();
    print!("{}", report.render());
    eprintln!(
        "flight recorder: {}",
        dir.join(format!("chaos_flight_{schedule}_{seed}.jsonl"))
            .display()
    );
    let silent = report.silent_divergences();
    if silent > 0 {
        return Err(Failure::chaos(
            format!(
                "chaos campaign {schedule} (seed {seed}) found {silent} silent divergence(s) \
                 across {} scenario(s)",
                report.scenarios.len()
            ),
            &probe,
        ));
    }
    Ok(())
}
