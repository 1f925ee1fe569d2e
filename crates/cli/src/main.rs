//! `shm` — command-line driver for the secure-GPU-memory simulator.
//!
//! ```text
//! shm list                                      benchmarks and designs
//! shm run -b fdtd2d -d SHM [--events N]         one (benchmark, design) run
//! shm run --trace file.trace -d PSSM            replay a stored trace
//! shm sweep -b kmeans [--events N] [--csv]      all designs on one benchmark
//! shm sweep -b kmeans --journal s.jsonl --resume   checkpointed sweep
//! shm crash --seed 7 --sweep                    power-cut recovery matrix
//! shm chaos --schedule smoke --seed 7           cluster fault gauntlet
//! shm trace gen -b lbm -o lbm.trace [--events N]
//! shm trace info lbm.trace
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage, 3 broken integrity
//! claim, 4 silent divergence in a chaos campaign, 130 interrupted
//! (SIGINT/SIGTERM; journaled sweeps stay resumable).

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gpu_mem_sim::{read_trace, write_trace, ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm_bench::dist::DistSweepConfig;
use shm_bench::{Backend, Journal, Sweep};
use shm_recovery::{config_hash, crash_sweep, run_crash, CrashConfig};
use shm_runtime::{BufferKind, Context, RecoveryPolicy};
use shm_telemetry::span::JobSpanInput;
use shm_telemetry::{Event, Probe, TelemetryConfig};
use shm_workloads::BenchmarkProfile;
use sim_exec::Executor;

mod args;
mod obs;
mod report;

use args::{ArgError, Args};

/// A CLI failure: message, process exit code, and (when telemetry was on)
/// the probe whose flight recorder is dumped before exiting.
struct CliError {
    message: String,
    code: u8,
    probe: Probe,
}

impl CliError {
    /// Usage / argument error (exit code 2, no flight recorder).
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
            probe: Probe::disabled(),
        }
    }

    /// Runtime failure after simulation started (exit code 1); dumps the
    /// probe's flight recorder so the last events before the failure are
    /// visible.
    fn runtime(message: impl Into<String>, probe: &Probe) -> Self {
        Self {
            message: message.into(),
            code: 1,
            probe: probe.clone(),
        }
    }

    /// Integrity failure: an attack campaign ended with an undetected
    /// tamper, a wrong-variant detection, or a false alarm (exit code 3,
    /// distinct from ordinary runtime failures so scripts can tell a
    /// broken security claim from a crashed run).
    fn integrity(message: impl Into<String>, probe: &Probe) -> Self {
        Self {
            message: message.into(),
            code: 3,
            probe: probe.clone(),
        }
    }

    /// Chaos-campaign failure: at least one fault-injection scenario ended
    /// in silent divergence — the cluster said "success" with wrong bytes
    /// (exit code 4, distinct from integrity so scripts can tell a broken
    /// distributed-robustness claim from a missed tamper).
    fn chaos(message: impl Into<String>, probe: &Probe) -> Self {
        Self {
            message: message.into(),
            code: 4,
            probe: probe.clone(),
        }
    }

    /// Cooperative cancellation (SIGINT/SIGTERM or an injected crash point)
    /// stopped the run early. Exit code 130 so scripts can tell an
    /// interrupted-but-resumable sweep from a failed one.
    fn interrupted(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 130,
            probe: Probe::disabled(),
        }
    }

    /// Prints the report and returns the process exit code.
    fn report(self) -> ExitCode {
        eprintln!("error: {}", self.message);
        if let Some(dump) = self.probe.flight_dump().filter(|d| !d.is_empty()) {
            eprintln!("--- flight recorder (last events before failure) ---");
            eprint!("{dump}");
        }
        if self.code == 2 {
            eprintln!("run `shm help` for usage");
        }
        ExitCode::from(self.code)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

fn main() -> ExitCode {
    install_signal_handlers();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report(),
    }
}

/// Routes SIGINT/SIGTERM into sim-exec's cooperative cancellation: workers
/// finish their in-flight jobs (journaling each one) and stop pulling new
/// work, so journals and sinks stay valid.  Uses the C runtime's `signal`
/// directly — the handler only stores to an atomic, which is async-signal
/// safe.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: std::ffi::c_int) {
        sim_exec::request_cancel();
    }
    extern "C" {
        fn signal(signum: std::ffi::c_int, handler: extern "C" fn(std::ffi::c_int)) -> usize;
    }
    const SIGINT: std::ffi::c_int = 2;
    const SIGTERM: std::ffi::c_int = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let Some(cmd) = argv.first().map(String::as_str) else {
        print_help();
        return Ok(());
    };
    let rest = &argv[1..];
    match cmd {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => cmd_run(Args::parse(rest).map_err(stringify)?),
        "attack" => cmd_attack(Args::parse(rest).map_err(stringify)?),
        "crash" => cmd_crash(Args::parse(rest).map_err(stringify)?),
        "sweep" => cmd_sweep(Args::parse(rest).map_err(stringify)?),
        "worker" => cmd_worker(Args::parse(rest).map_err(stringify)?),
        "chaos" => cmd_chaos(Args::parse(rest).map_err(stringify)?),
        "trace-report" => obs::cmd_trace_report(rest),
        "top" => obs::cmd_top(&Args::parse(rest).map_err(stringify)?),
        "env" => {
            obs::cmd_env();
            Ok(())
        }
        "trace" => match rest.first().map(String::as_str) {
            Some("gen") => Ok(cmd_trace_gen(Args::parse(&rest[1..]).map_err(stringify)?)?),
            Some("info") => Ok(cmd_trace_info(&rest[1..])?),
            other => Err(CliError::usage(format!(
                "unknown trace subcommand {other:?}"
            ))),
        },
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    }
}

/// Builds the probe requested by `--telemetry` / `--epoch-cycles N`;
/// disabled (zero-cost) when the flag is absent.
fn telemetry_probe(args: &Args) -> Result<Probe, String> {
    if !args.flag("telemetry") {
        if args.get("trace-out").is_some()
            || args.get("epoch-cycles").is_some()
            || args.get("epoch-csv").is_some()
        {
            return Err("--trace-out/--epoch-cycles/--epoch-csv require --telemetry".into());
        }
        return Ok(Probe::disabled());
    }
    let mut cfg = TelemetryConfig::default();
    if let Some(n) = args.get_u64("epoch-cycles")? {
        cfg.epoch_cycles = n.max(1);
    }
    // With --trace-out the JSONL document streams to disk as the run
    // produces it, instead of accumulating every sampled event in memory.
    let probe = if let Some(path) = args.get("trace-out") {
        Probe::enabled_streaming(cfg, Path::new(path)).map_err(|e| format!("create {path}: {e}"))?
    } else {
        Probe::enabled(cfg)
    };
    probe.install_panic_hook();
    Ok(probe)
}

fn stringify(e: ArgError) -> String {
    e.to_string()
}

fn print_help() {
    println!(
        "shm — secure GPU memory simulator (SHM, HPCA 2022 reproduction)\n\n\
         commands:\n\
         \x20 list                                 benchmarks and designs\n\
         \x20 run   -b <bench> -d <design> [--events N] [--seed S] [--jobs N]\n\
         \x20 run   --trace <file> -d <design>     replay a stored trace\n\
         \x20 run   --custom ro=0.9,stream=0.95,write=0.05 -d SHM\n\
         \x20 run   ... --telemetry [--epoch-cycles N] [--trace-out t.jsonl] [--epoch-csv e.csv]\n\
         \x20 run   ... --profile                  phase self-profiler (forces --jobs 1)\n\
         \x20 run   ... --pools gpu-only|static-split|hot-page-migrate   heterogeneous\n\
         \x20        CPU+GPU pools (SHM_POOL_*/SHM_LINK_* shape them; default single-pool)\n\
         \x20 sweep -b <bench> [--events N] [--csv] [--jobs N]\n\
         \x20 sweep -b <bench> --pools <policy|all>   placement-policy sweep: design\n\
         \x20        rows per policy plus migration/spill/link counters\n\
         \x20 sweep ... --journal <file> [--resume]  checkpoint results; SIGINT/SIGTERM\n\
         \x20        stops gracefully (exit 130) and --resume skips completed jobs\n\
         \x20 sweep -b <bench> --dist HOST:PORT    run the sweep on a worker cluster\n\
         \x20        (SHM_DIST_WORKERS=N spawns loopback workers; composes with --journal)\n\
         \x20 sweep ... --metrics-addr HOST:PORT [--metrics-hold-ms N]   live /metrics\n\
         \x20        endpoint (Prometheus text); --dist adds [--heartbeat-timeout-ms N]\n\
         \x20 worker --connect HOST:PORT [--jobs N] [--id NAME] [--heartbeat-ms N]\n\
         \x20        [--reconnect-attempts N] [--metrics-addr HOST:PORT]   serve sweep jobs\n\
         \x20 chaos [--schedule smoke|full] [--seed S] [--scale X] [--dir D]   fault-\n\
         \x20        injection campaign on the cluster; exit 4 on silent divergence\n\
         \x20 trace-report <file.jsonl> [--top N]  span timeline from a telemetry trace\n\
         \x20 top --connect HOST:PORT [--interval-ms N] [--iterations N] [--once]\n\
         \x20        live cluster monitor over a /metrics endpoint\n\
         \x20 env                                  every SHM_* environment knob\n\
         \x20 attack --campaign smoke|full [--seed S] [--policy abort|retry|quarantine]\n\
         \x20        [--telemetry ...]            adversary campaign; exit 3 on any miss\n\
         \x20 crash --at-cycle N [--seed S] [--ops K] [--flush F]   cut power at a\n\
         \x20        micro-op cycle, recover, classify; --sweep covers every cycle\n\
         \x20 trace gen  -b <bench> -o <file> [--events N] [--seed S]\n\
         \x20 trace info <file>\n"
    );
}

fn cmd_list() {
    println!("benchmarks (Table VII):");
    for p in BenchmarkProfile::suite() {
        println!(
            "  {:<16} util {:>3.0}%  read-only {:>3.0}%  streaming {:>3.0}%  writes {:>3.0}%{}",
            p.name,
            p.bandwidth_util * 100.0,
            p.readonly_frac * 100.0,
            p.streaming_frac * 100.0,
            p.write_frac * 100.0,
            if p.uses_texture { "  [texture]" } else { "" }
        );
    }
    println!("\ndesigns (Table VIII):");
    for d in DesignPoint::ALL {
        println!("  {}", d.name());
    }
}

/// Builds a one-off profile from `--custom ro=0.8,stream=0.9,write=0.1,...`.
fn custom_profile(spec: &str) -> Result<BenchmarkProfile, String> {
    let mut p = BenchmarkProfile {
        name: "custom",
        bandwidth_util: 0.5,
        readonly_frac: 0.5,
        streaming_frac: 0.5,
        write_frac: 0.2,
        l2_locality: 0.3,
        uses_texture: false,
        kernels: 1,
        reuses_input: false,
        unmarked_readonly_frac: 0.0,
        ..BenchmarkProfile::suite().remove(0)
    };
    for kv in spec.split(',').filter(|s| !s.is_empty()) {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| format!("bad --custom entry {kv:?}, want key=value"))?;
        let fval = || -> Result<f64, String> {
            v.parse().map_err(|_| format!("bad number {v:?} for {k}"))
        };
        match k {
            "ro" | "readonly" => p.readonly_frac = fval()?,
            "stream" | "streaming" => p.streaming_frac = fval()?,
            "write" | "writes" => p.write_frac = fval()?,
            "util" | "bandwidth" => p.bandwidth_util = fval()?,
            "locality" => p.l2_locality = fval()?,
            "kernels" => p.kernels = v.parse().map_err(|_| format!("bad count {v:?}"))?,
            "texture" => p.uses_texture = v == "1" || v == "true",
            "reuse" => p.reuses_input = v == "1" || v == "true",
            "footprint_mb" => {
                p.footprint_bytes = v.parse::<u64>().map_err(|_| format!("bad size {v:?}"))? << 20
            }
            other => return Err(format!("unknown --custom key {other:?}")),
        }
    }
    if p.readonly_frac + p.write_frac > 1.0 {
        return Err(format!(
            "ro ({}) + write ({}) exceeds 1.0: writes never target read-only data",
            p.readonly_frac, p.write_frac
        ));
    }
    Ok(p)
}

fn load_trace(args: &Args) -> Result<ContextTrace, String> {
    if let Some(path) = args.get("trace") {
        let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return read_trace(BufReader::new(f)).map_err(|e| format!("parse {path}: {e}"));
    }
    if let Some(spec) = args.get("custom") {
        let mut profile = custom_profile(spec)?;
        if let Some(n) = args.get_u64("events")? {
            profile.events_per_kernel = n;
        }
        let seed = args.get_u64("seed")?.unwrap_or(0xBEEF);
        return Ok(profile.generate(seed));
    }
    let bench = args
        .get("b")
        .or_else(|| args.get("benchmark"))
        .ok_or("need --benchmark/-b or --trace")?;
    let mut profile =
        BenchmarkProfile::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
    if let Some(n) = args.get_u64("events")? {
        profile.events_per_kernel = n;
    }
    let seed = args.get_u64("seed")?.unwrap_or(0xBEEF);
    Ok(profile.generate(seed))
}

/// `--pools <policy>` → heterogeneous-pool configuration (env knobs
/// applied); `None` when the flag is absent (single-pool default).
fn parse_pools(args: &Args) -> Result<Option<shm_pool::PoolsConfig>, String> {
    let Some(raw) = args.get("pools") else {
        return Ok(None);
    };
    let policy = shm_pool::PlacementPolicy::parse(raw).ok_or_else(|| {
        format!("unknown --pools {raw:?} (want gpu-only|static-split|hot-page-migrate)")
    })?;
    Ok(Some(shm_pool::PoolsConfig::from_env(policy)))
}

/// `--pools <policy|all>` → the policy list a sweep covers.
fn parse_pools_list(args: &Args) -> Result<Option<Vec<shm_pool::PlacementPolicy>>, String> {
    let Some(raw) = args.get("pools") else {
        return Ok(None);
    };
    if raw == "all" {
        return Ok(Some(shm_pool::PlacementPolicy::ALL.to_vec()));
    }
    shm_pool::PlacementPolicy::parse(raw)
        .map(|p| Some(vec![p]))
        .ok_or_else(|| {
            format!("unknown --pools {raw:?} (want gpu-only|static-split|hot-page-migrate|all)")
        })
}

fn parse_design(args: &Args) -> Result<DesignPoint, String> {
    let name = args
        .get("d")
        .or_else(|| args.get("design"))
        .ok_or("need --design/-d")?;
    DesignPoint::from_name(name).ok_or_else(|| format!("unknown design {name:?}"))
}

/// Resolves the worker-pool width for `--jobs N` (`None` defers to
/// `SHM_JOBS` / available parallelism).  `--jobs 0` or a non-numeric value
/// means "auto" with a stderr warning, mirroring the `SHM_JOBS` policy.
fn parse_jobs(args: &Args) -> Result<Option<usize>, String> {
    let Some(raw) = args.get("jobs") else {
        return Ok(None);
    };
    let parsed = sim_exec::parse_jobs_spec(raw);
    if parsed.is_none() {
        eprintln!(
            "warning: ignoring --jobs {raw:?} (expected a positive integer); \
             using auto parallelism"
        );
    }
    Ok(parsed)
}

fn cmd_run(args: Args) -> Result<(), CliError> {
    let profiling = args.flag("profile");
    if profiling {
        // Phase timers are process-global, so profiled runs are serial —
        // concurrent jobs would double-charge wall time to the phases.
        // Always say so: an SHM_JOBS setting is silently overridden too.
        eprintln!("note: --profile forces --jobs 1 (phase timers are process-global)");
        shm_metrics::phase::enable_profiling();
        shm_metrics::phase::reset_phases();
    }
    let profile_started = Instant::now();
    let trace = load_trace(&args)?;
    let design = parse_design(&args)?;
    let probe = telemetry_probe(&args)?;
    let jobs = if profiling {
        Some(1)
    } else {
        parse_jobs(&args)?
    };
    let pools = parse_pools(&args)?;
    let cfg = GpuConfig::default();
    // The baseline and the protected design are independent runs — two jobs
    // on the shared pool.  Only the design run carries the probe.
    let designs = [DesignPoint::Unprotected, design];
    let mut results = Executor::from_request(jobs)
        .try_map(
            &designs,
            |_, d| format!("{} under {}", trace.name, d.name()),
            |i, &d| {
                let mut sim = Simulator::new(&cfg, d);
                // Both runs see the same pool geometry, so the normalized
                // IPC compares designs, not memory systems.
                if let Some(p) = pools {
                    sim = sim.with_pools(p);
                }
                let sim = if i == 1 {
                    sim.with_probe(probe.clone())
                } else {
                    sim
                };
                sim.run(&trace)
            },
        )
        .map_err(|e| CliError::runtime(format!("simulation failed: {e}"), &probe))?;
    let profiled_wall_ns = profile_started.elapsed().as_nanos() as u64;
    let mut take = || {
        results
            .pop()
            .ok_or_else(|| CliError::runtime("executor returned fewer results than jobs", &probe))
    };
    let stats = take()?;
    let base = take()?;
    report::print_run(&trace, design, &stats, &base, &EnergyModel::default());
    if let Some(p) = pools {
        println!(
            "pools ({}): migrations {}  spills {}  cpu accesses {}  capacity events {}  \
             link to-gpu {} B  to-cpu {} B",
            p.policy.label(),
            stats.pool_migrations,
            stats.pool_spills,
            stats.pool_cpu_accesses,
            stats.pool_capacity_events,
            stats.link_bytes_to_gpu,
            stats.link_bytes_to_cpu,
        );
    }
    if probe.is_enabled() {
        if let Some(s) = probe.summary() {
            println!("{s}");
        }
        if let Some(path) = args.get("trace-out") {
            // The document streamed to disk during the run; surface any
            // write error the sink swallowed mid-run.
            if let Some(e) = probe.stream_error() {
                return Err(CliError::runtime(format!("write {path}: {e}"), &probe));
            }
            println!("telemetry trace streamed to {path}");
        }
        if let Some(path) = args.get("epoch-csv") {
            probe
                .write_epoch_csv(Path::new(path))
                .map_err(|e| CliError::runtime(format!("write {path}: {e}"), &probe))?;
            println!("epoch CSV written to {path}");
        }
    }
    if profiling {
        print!("{}", shm_metrics::phase::report());
        let covered = shm_metrics::phase::total_nanos();
        println!(
            "profile: phases cover {:.1}% of {:.1} ms wall",
            100.0 * covered as f64 / profiled_wall_ns.max(1) as f64,
            profiled_wall_ns as f64 / 1e6
        );
    }
    Ok(())
}

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

fn cmd_attack(args: Args) -> Result<(), CliError> {
    let campaign = args.get("campaign").unwrap_or("smoke").to_string();
    let seed = args.get_u64("seed")?.unwrap_or(7);
    let policy = parse_policy(&args)?;
    let probe = telemetry_probe(&args)?;
    let report = shm_fault::run_campaign(&campaign, seed).ok_or_else(|| {
        CliError::usage(format!("unknown campaign {campaign:?} (want smoke|full)"))
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
                        kind: observed.label(),
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
    if probe.is_enabled() {
        if let Some(s) = probe.summary() {
            println!("{s}");
        }
    }
    if !report.is_clean_pass() {
        let silent: usize = report.matrix.iter().map(|(_, e)| e.silent).sum();
        return Err(CliError::integrity(
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
fn run_policy_demo(policy: RecoveryPolicy, seed: u64, probe: &Probe) -> Result<(), CliError> {
    let fail = |e: shm_runtime::RuntimeError| CliError::runtime(format!("policy demo: {e}"), probe);
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

/// `shm crash`: cut power at a micro-op cycle inside a seeded secure-memory
/// workload, run log-replay recovery, and classify the outcome.  Any silent
/// divergence from the golden run breaks the crash-consistency claim (exit
/// code 3, like a missed tamper in `shm attack`).
fn cmd_crash(args: Args) -> Result<(), CliError> {
    let seed = args.get_u64("seed")?.unwrap_or(7);
    let ops = args.get_u64("ops")?.unwrap_or(12) as usize;
    let flush = args.get_u64("flush")?.unwrap_or(1) as usize;
    if args.flag("sweep") {
        let report = crash_sweep(seed, ops, flush);
        print!("{}", report.render());
        if report.total_silent_divergences() > 0 {
            return Err(CliError::integrity(
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
        .ok_or_else(|| CliError::usage("need --at-cycle N (or --sweep to cover every cycle)"))?;
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
        return Err(CliError::integrity(
            format!(
                "crash at cycle {at_cycle} (seed {seed}) served {} silently diverged read(s)",
                report.silent_divergences
            ),
            &Probe::disabled(),
        ));
    }
    Ok(())
}

fn cmd_sweep(args: Args) -> Result<(), CliError> {
    // The /metrics endpoint (when requested) covers the whole sweep and is
    // shut down after the table prints, honoring --metrics-hold-ms.
    let metrics = obs::MetricsGuard::from_args(&args)?;
    let result = cmd_sweep_inner(&args);
    metrics.finish();
    result
}

fn cmd_sweep_inner(args: &Args) -> Result<(), CliError> {
    if let Some(policies) = parse_pools_list(args)? {
        if args.get("dist").is_some() || args.get("journal").is_some() {
            return Err(CliError::usage(
                "--pools does not compose with --dist/--journal yet",
            ));
        }
        return cmd_sweep_pools(args, &policies);
    }
    let dist = args.get("dist");
    if dist.is_some() && (args.get("trace").is_some() || args.get("custom").is_some()) {
        return Err(CliError::usage(
            "--dist needs a named benchmark (-b): workers regenerate the trace from its name",
        ));
    }
    let trace = load_trace(args)?;
    let probe = telemetry_probe(args)?;
    // Cluster workers regenerate a named benchmark's trace from (name,
    // events, seed); a stored or custom trace only ever runs locally.
    let events = match args.get_u64("events")? {
        Some(n) => n,
        None => BenchmarkProfile::by_name(&trace.name).map_or(0, |p| p.events_per_kernel),
    };
    let seed = args.get_u64("seed")?.unwrap_or(0xBEEF);
    let mut sweep = Sweep::all_designs(&trace.name, events, seed);
    sweep.backend = match dist {
        Some(bind) => {
            let mut cfg = DistSweepConfig::from_env(bind);
            if let Some(ms) = args.get_u64("heartbeat-timeout-ms")? {
                cfg.opts.heartbeat_timeout_ms = ms.max(1);
            }
            Backend::Dist(cfg)
        }
        None => Backend::Local(Executor::from_request(parse_jobs(args)?)),
    };
    match args.get("journal") {
        Some(path) => {
            if !args.flag("resume") && Path::new(path).exists() {
                return Err(CliError::usage(format!(
                    "journal {path} already exists; pass --resume to continue it or remove it first"
                )));
            }
            // The hash binds the journal to this exact sweep: same trace
            // content (name + event count) and same design list, or the
            // journal is rejected.
            let mut parts: Vec<String> = vec![
                trace.name.to_string(),
                trace.all_events().count().to_string(),
            ];
            parts.extend(DesignPoint::ALL.iter().map(|d| d.name().to_string()));
            let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();
            sweep.journal = Some(Journal {
                path: path.into(),
                config_hash: config_hash(&part_refs),
                crash_after_jobs: args.get_u64("crash-after-jobs")?.map(|n| n as usize),
            });
        }
        None if args.flag("resume") || args.get("crash-after-jobs").is_some() => {
            return Err(CliError::usage(
                "--resume/--crash-after-jobs require --journal <file>",
            ));
        }
        None => {}
    }

    let cfg = GpuConfig::default();
    let run = sweep
        .run(|i, _| Simulator::new(&cfg, DesignPoint::ALL[i]).run(&trace))
        .map_err(|e| CliError::runtime(format!("sweep failed: {e}"), &probe))?;
    if let Some(cluster) = &run.cluster {
        // Per-worker accounting: one flight-recorder event each (satisfies
        // `--telemetry`) and a stderr line so plain runs see the cluster
        // shape without touching stdout.
        for w in &cluster.workers {
            probe.emit(
                0,
                Event::DistWorker {
                    worker: w.id.clone(),
                    jobs: w.jobs_done,
                    bytes_rx: w.bytes_received,
                    bytes_tx: w.bytes_sent,
                    reassigned: w.reassigned,
                },
            );
            eprintln!(
                "worker {}: {} job(s), {} B dispatched, {} B of results{}",
                w.id,
                w.jobs_done,
                w.bytes_sent,
                w.bytes_received,
                if w.reassigned > 0 {
                    format!(", {} reassigned", w.reassigned)
                } else {
                    String::new()
                }
            );
        }
        if cluster.reassignments > 0 {
            eprintln!(
                "{} job(s) reassigned after worker loss",
                cluster.reassignments
            );
        }
    }
    if probe.is_enabled() {
        // The canonical span tree (`shm_telemetry::span::build_job_spans`):
        // a sweep root plus one span per job, whichever backend ran it.
        let inputs: Vec<JobSpanInput> = run
            .timings
            .iter()
            .map(|t| JobSpanInput {
                index: t.index,
                label: sweep.jobs[t.index].label(),
                worker: t.worker.clone(),
                dispatch_ms: t.dispatch_ms,
                end_ms: t.end_ms,
                run_ns: t.run_ns,
                cycles: run.stats[t.index].as_ref().map_or(0, |s| s.cycles),
            })
            .collect();
        probe.emit_job_spans(run.trace_id, &format!("sweep {}", trace.name), &inputs);
    }
    let Some(stats) = run.complete() else {
        if let Some(journal) = &sweep.journal {
            eprintln!(
                "interrupted: {} of {} job(s) completed and journaled in {}",
                run.completed_labels.len(),
                sweep.jobs.len(),
                journal.path.display()
            );
            for label in &run.completed_labels {
                eprintln!("  done {label}");
            }
            eprintln!("re-run with --resume to pick up where this left off");
        }
        return Err(CliError::interrupted("sweep interrupted"));
    };
    if let Some(journal) = sweep.journal.as_ref().filter(|_| run.reused > 0) {
        eprintln!(
            "resumed from {}: {} job(s) reused, {} executed",
            journal.path.display(),
            run.reused,
            run.executed
        );
    }
    // A --dist sweep closes its telemetry document before the table; each
    // path keeps the stdout it always had.
    if dist.is_some() {
        finish_sweep_telemetry(args, &probe)?;
    }
    print!("{}", format_sweep_table(&stats, args.flag("csv")));
    if dist.is_none() {
        finish_sweep_telemetry(args, &probe)?;
    }
    Ok(())
}

/// `shm sweep --pools <policy|all>`: every design under every requested
/// placement policy.  The `(policy × design)` grid is one submission-order
/// `try_map`, so the rendered tables are identical at any `--jobs` count.
/// This path uses its own formatter; the default single-pool sweep table is
/// untouched.
fn cmd_sweep_pools(args: &Args, policies: &[shm_pool::PlacementPolicy]) -> Result<(), CliError> {
    let trace = load_trace(args)?;
    let probe = telemetry_probe(args)?;
    let jobs = parse_jobs(args)?;
    let cfg = GpuConfig::default();
    let all = DesignPoint::ALL;
    let pairs: Vec<(shm_pool::PlacementPolicy, DesignPoint)> = policies
        .iter()
        .flat_map(|&p| all.iter().map(move |&d| (p, d)))
        .collect();
    let stats = Executor::from_request(jobs)
        .try_map(
            &pairs,
            |_, &(p, d)| format!("{} under {} [{}]", trace.name, d.name(), p.label()),
            |_, &(p, d)| {
                Simulator::new(&cfg, d)
                    .with_pools(shm_pool::PoolsConfig::from_env(p))
                    .run(&trace)
            },
        )
        .map_err(|e| CliError::runtime(format!("pool sweep failed: {e}"), &probe))?;
    print!(
        "{}",
        format_pool_sweep_tables(policies, &stats, args.flag("csv"))
    );
    finish_sweep_telemetry(args, &probe)?;
    Ok(())
}

/// Renders the `--pools` sweep: one design table per policy, each followed
/// by that policy's migration/spill/link counter line.
fn format_pool_sweep_tables(
    policies: &[shm_pool::PlacementPolicy],
    stats: &[SimStats],
    csv: bool,
) -> String {
    use std::fmt::Write as _;
    let per = DesignPoint::ALL.len();
    let mut out = String::new();
    for (i, &policy) in policies.iter().enumerate() {
        let slice = &stats[i * per..(i + 1) * per];
        let _ = writeln!(out, "== pools: {} ==", policy.label());
        out.push_str(&format_sweep_table(slice, csv));
        // Pool counters are policy-shaped but design-independent in intent;
        // report the SHM design's row (the paper's scheme).
        let shm = slice
            .iter()
            .zip(DesignPoint::ALL)
            .find(|(_, d)| *d == DesignPoint::Shm)
            .map(|(s, _)| s)
            .unwrap_or(&slice[0]);
        let _ = writeln!(
            out,
            "pool counters (SHM row): migrations {}  spills {}  cpu accesses {}  \
             capacity events {}  link to-gpu {} B  to-cpu {} B\n",
            shm.pool_migrations,
            shm.pool_spills,
            shm.pool_cpu_accesses,
            shm.pool_capacity_events,
            shm.link_bytes_to_gpu,
            shm.link_bytes_to_cpu,
        );
    }
    out
}

/// Shared `--telemetry` epilogue for sweep paths that never run a
/// simulator in-process with the probe attached: close the document and
/// surface any `--trace-out` / `--epoch-csv` outputs.
fn finish_sweep_telemetry(args: &Args, probe: &Probe) -> Result<(), CliError> {
    if !probe.is_enabled() {
        return Ok(());
    }
    probe.finalize(0);
    if let Some(s) = probe.summary() {
        println!("{s}");
    }
    if let Some(path) = args.get("trace-out") {
        if let Some(e) = probe.stream_error() {
            return Err(CliError::runtime(format!("write {path}: {e}"), probe));
        }
        println!("telemetry trace streamed to {path}");
    }
    if let Some(path) = args.get("epoch-csv") {
        probe
            .write_epoch_csv(Path::new(path))
            .map_err(|e| CliError::runtime(format!("write {path}: {e}"), probe))?;
        println!("epoch CSV written to {path}");
    }
    Ok(())
}

/// Renders the design table for one sweep.  Every consumer — local sweep,
/// `--dist` sweep, and each policy of a `--pools` sweep — goes through this
/// one formatter so their tables are byte-identical by construction.
fn format_sweep_table(stats: &[SimStats], csv: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let all = DesignPoint::ALL;
    let energy = EnergyModel::default();
    // ALL[0] is the unprotected baseline every row normalizes against.
    let base = stats[0].clone();
    if csv {
        let _ = writeln!(
            out,
            "design,norm_ipc,cycles,metadata_bytes,overhead,energy_per_instr"
        );
    } else {
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>11} {:>13} {:>9} {:>8}",
            "design", "norm IPC", "cycles", "metadata B", "overhead", "epi"
        );
    }
    for (d, s) in all.iter().zip(stats) {
        let norm = base.cycles as f64 / s.cycles as f64;
        if csv {
            let _ = writeln!(
                out,
                "{},{:.4},{},{},{:.4},{:.4}",
                d.name(),
                norm,
                s.cycles,
                s.traffic.metadata_bytes(),
                s.traffic.overhead_ratio(),
                energy.normalized_epi(s, &base)
            );
        } else {
            let _ = writeln!(
                out,
                "{:<16} {:>9.4} {:>11} {:>13} {:>8.2}% {:>8.3}",
                d.name(),
                norm,
                s.cycles,
                s.traffic.metadata_bytes(),
                s.traffic.overhead_ratio() * 100.0,
                energy.normalized_epi(s, &base)
            );
        }
    }
    out
}

/// `shm chaos`: run the distributed sweep through the deterministic fault
/// gauntlet (chaos proxy, byzantine workers, coordinator crash-resume) and
/// verify every scenario ends in byte-identical merged tables or a clean
/// labelled failure.  Any silent divergence exits with code 4.
fn cmd_chaos(args: Args) -> Result<(), CliError> {
    let schedule = args.get("schedule").unwrap_or("smoke").to_string();
    if schedule != "smoke" && schedule != "full" {
        return Err(CliError::usage(format!(
            "unknown schedule {schedule:?} (want smoke|full)"
        )));
    }
    let seed = args.get_u64("seed")?.unwrap_or(7);
    let scale = match args.get("scale") {
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or_else(|| CliError::usage(format!("bad --scale {raw:?}")))?,
        None => 0.02,
    };
    let dir = args
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("shm-chaos-{}", std::process::id())));
    let probe = telemetry_probe(&args)?;
    let metrics = obs::MetricsGuard::from_args(&args)?;

    eprintln!("chaos campaign: schedule={schedule} seed={seed} scale={scale}");
    let report = shm_bench::chaos::run_chaos_campaign(&schedule, seed, scale, &dir)
        .map_err(|e| CliError::runtime(format!("chaos campaign: {e}"), &probe))?;
    metrics.finish();
    print!("{}", report.render());
    eprintln!(
        "flight recorder: {}",
        dir.join(format!("chaos_flight_{schedule}_{seed}.jsonl"))
            .display()
    );
    let silent = report.silent_divergences();
    if silent > 0 {
        return Err(CliError::chaos(
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

/// `shm worker --connect HOST:PORT`: serve sweep jobs to a coordinator.
/// Each dispatched job regenerates its trace locally and runs on this
/// host's executor pool; the process keeps reconnecting (with backoff)
/// until the coordinator shuts the cluster down.
fn cmd_worker(args: Args) -> Result<(), CliError> {
    let addr = args
        .get("connect")
        .ok_or_else(|| CliError::usage("need --connect HOST:PORT"))?
        .to_string();
    let metrics = obs::MetricsGuard::from_args(&args)?;
    // Heartbeat interval: flag beats SHM_HEARTBEAT_MS beats the default.
    let mut opts = sim_dist::WorkerOptions::from_env();
    opts.jobs = parse_jobs(&args)?;
    if let Some(ms) = args.get_u64("heartbeat-ms")? {
        opts.heartbeat_interval_ms = ms.max(10);
    }
    if let Some(id) = args.get("id") {
        opts.worker_id = id.to_string();
    }
    // Reconnect persistence: flag beats SHM_RECONNECT_ATTEMPTS beats the
    // default.
    if let Some(n) = args.get_u64("reconnect-attempts")? {
        opts.max_reconnect_attempts = n.min(u64::from(u32::MAX)) as u32;
    }
    eprintln!("worker {} connecting to {addr}", opts.worker_id);
    let served = shm_bench::dist::serve_worker(&addr, opts);
    metrics.finish();
    match served {
        Ok(s) => {
            eprintln!(
                "worker done: {} job(s), {} B received, {} B sent, {} reconnect(s)",
                s.jobs_done, s.bytes_received, s.bytes_sent, s.reconnects
            );
            Ok(())
        }
        Err(e) => Err(CliError::runtime(
            format!("worker: {e}"),
            &Probe::disabled(),
        )),
    }
}

fn cmd_trace_gen(args: Args) -> Result<(), String> {
    let trace = load_trace(&args)?;
    let out = args
        .get("o")
        .or_else(|| args.get("out"))
        .ok_or("need --out/-o <file>")?;
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    write_trace(&trace, &mut w).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} ({} kernels, {} events)",
        out,
        trace.kernels.len(),
        trace.all_events().count()
    );
    Ok(())
}

fn cmd_trace_info(rest: &[String]) -> Result<(), String> {
    let path = rest.first().ok_or("need a trace file")?;
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let trace = read_trace(BufReader::new(f)).map_err(|e| format!("parse {path}: {e}"))?;
    println!("trace {} ({})", trace.name, path);
    println!("  read-only init ranges: {}", trace.readonly_init.len());
    for (start, len) in &trace.readonly_init {
        println!("    {:#x} + {} bytes", start.raw(), len);
    }
    for k in &trace.kernels {
        let writes = k.events.iter().filter(|e| e.kind.is_write()).count();
        println!(
            "  kernel {:<20} {:>8} events ({} writes), {} host actions",
            k.name,
            k.events.len(),
            writes,
            k.pre_actions.len()
        );
    }
    let map = GpuConfig::default().partition_map();
    let events: Vec<_> = trace.all_events().cloned().collect();
    let oracle = shm::OracleProfile::from_trace(&events, map);
    println!(
        "  oracle: {:.1}% streaming, {:.1}% read-only",
        oracle.streaming_fraction(&events, map) * 100.0,
        oracle.read_only_fraction(&events, map) * 100.0
    );
    Ok(())
}
