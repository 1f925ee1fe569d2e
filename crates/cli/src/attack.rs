//! `shm attack`: the adversary campaign, with an optional recovery-policy
//! demo; exit code 3 when any tamper goes undetected.

use shm_bench::cli::{finish_telemetry, telemetry_probe, Args, Failure};
use shm_runtime::{BufferKind, Context, RecoveryPolicy};
use shm_telemetry::{Event, Probe};

/// `--policy abort|retry|quarantine` → runtime recovery policy.
fn parse_policy(args: &Args) -> Result<Option<RecoveryPolicy>, String> {
    match args.get("policy") {
        None => Ok(None),
        Some("abort") => Ok(Some(RecoveryPolicy::Abort)),
        Some("retry") => Ok(Some(RecoveryPolicy::RetryOnce)),
        Some("quarantine") => Ok(Some(RecoveryPolicy::Quarantine)),
        Some(other) => Err(format!(
            "unknown --policy {other:?} (want abort|retry|quarantine)"
        )),
    }
}

pub fn cmd_attack(args: &Args) -> Result<(), Failure> {
    let campaign = args.get("campaign").unwrap_or("smoke").to_string();
    let seed = args.get_u64("seed")?.unwrap_or(7);
    let policy = parse_policy(args)?;
    let probe = telemetry_probe(args)?;
    let report = shm_fault::run_campaign(&campaign, seed).ok_or_else(|| {
        Failure::usage(format!("unknown campaign {campaign:?} (want smoke|full)"))
    })?;
    if probe.is_enabled() {
        // Replay the campaign's verdicts into the telemetry stream so the
        // flight recorder and JSONL trace carry one `integrity_violation`
        // event per detection (cycle = incident index in execution order).
        for (cycle, inc) in report.incidents.iter().enumerate() {
            if let Some(observed) = inc.observed {
                probe.emit(
                    cycle as u64,
                    Event::IntegrityViolation {
                        addr: inc.addr,
                        violation: observed.label(),
                        action: if inc.recovered {
                            "retry_recovered"
                        } else {
                            "abort"
                        },
                    },
                );
            }
        }
    }
    print!("{}", report.render());
    if let Some(policy) = policy {
        run_policy_demo(policy, seed, &probe)?;
    }
    finish_telemetry(args, &probe)?;
    if !report.is_clean_pass() {
        let silent: usize = report.matrix.iter().map(|(_, e)| e.silent).sum();
        return Err(Failure::integrity(
            format!(
                "campaign {} (seed {}) broke the security claim: {}/{} detected, {} silent, {} false alarms",
                report.name,
                report.seed,
                report.total_detected(),
                report.total_injected(),
                silent,
                report.false_alarms,
            ),
            &probe,
        ));
    }
    Ok(())
}

/// Runs one tampered kernel under the requested recovery policy and prints
/// what the runtime did about it: a transient fault (absorbable by
/// retry-fetch-once) plus a persistent ciphertext flip on the next block.
fn run_policy_demo(policy: RecoveryPolicy, seed: u64, probe: &Probe) -> Result<(), Failure> {
    let fail = |e: shm_runtime::RuntimeError| Failure::runtime(format!("policy demo: {e}"), probe);
    let mut ctx = Context::new(seed)
        .with_recovery(policy)
        .with_probe(probe.clone());
    let buf = ctx.alloc(1024, BufferKind::Scratch).map_err(fail)?;
    ctx.memcpy_to_device(buf, &[0xA5; 1024]).map_err(fail)?;
    let base = ctx.device_address(buf).map_err(fail)?;
    ctx.secure_memory_mut().inject_transient_fault(base, 3, 1);
    ctx.secure_memory_mut()
        .tamper_ciphertext_bit(base + 128, 0, 1);
    let outcome = ctx.launch("policy-demo", |k| {
        for block in 0..8u64 {
            let _ = k.load_u8(buf, block * 128)?;
        }
        Ok(())
    });
    println!(
        "policy {:?}: kernel {}, {} violation(s) recorded, degraded={}",
        policy,
        match outcome {
            Ok(()) => "completed".to_string(),
            Err(e) => format!("aborted ({e})"),
        },
        ctx.violations().len(),
        ctx.is_degraded(),
    );
    for v in ctx.violations() {
        println!("  {v}");
    }
    Ok(())
}
