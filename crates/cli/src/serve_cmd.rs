//! `shm serve` and `shm loadgen`: the multi-tenant simulation service and
//! its load-generating verification client.
//!
//! `serve` turns this host into a long-running daemon: tenants submit
//! design sweeps over the sim-dist v4 frame protocol and the daemon
//! multiplexes them onto one local execution pool with fair scheduling,
//! bounded queues, deadlines and graceful SIGTERM drain (exit 0).
//!
//! `loadgen` drives such a daemon the way the chaos campaign drives the
//! cluster: several tenants submitting concurrently (optionally through
//! the deterministic fault proxy), every completed sweep compared
//! byte-for-byte against the serial in-process reference.  Any mismatch
//! is a **silent divergence** and exits with code 4.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_types::SimStats;
use shm_bench::dist::{dist_config_hash, dist_worker_handler, SimJob};
use shm_recovery::JournalCodec;
use shm_telemetry::Probe;
use shm_workloads::BenchmarkProfile;
use sim_exec::CancelToken;
use sim_serve::{Daemon, ServeClient, ServeEvent, ServeOptions, SweepOutcome};

use crate::args::Args;
use crate::{obs, parse_jobs, CliError};
use gpu_mem_sim::DesignPoint;

/// `shm serve --listen HOST:PORT`: run the daemon until SIGINT/SIGTERM,
/// then drain gracefully and exit 0.
pub fn cmd_serve(args: Args) -> Result<(), CliError> {
    let listen = args
        .get("listen")
        .ok_or_else(|| CliError::usage("need --listen HOST:PORT"))?;
    let metrics = obs::MetricsGuard::from_args(&args)?;
    let mut opts = ServeOptions::from_env(dist_config_hash());
    // Flags beat SHM_SERVE_* knobs beat defaults.
    if let Some(n) = args.get_u64("queue-depth")? {
        opts.queue_depth = n.max(1) as usize;
    }
    if let Some(ms) = args.get_u64("deadline-ms")? {
        opts.deadline_ms = ms;
    }
    if let Some(ms) = args.get_u64("drain-ms")? {
        opts.drain_ms = ms.max(1);
    }
    if let Some(ms) = args.get_u64("idle-ms")? {
        opts.idle_ms = ms.max(1);
    }
    if let Some(n) = args.get_u64("max-tenants")? {
        opts.max_tenants = n.max(1) as usize;
    }
    opts.pool = parse_jobs(&args)?;
    if let Some(path) = args.get("tokens") {
        let table = sim_serve::load_token_table(path)
            .map_err(|e| CliError::runtime(format!("--tokens: {e}"), &Probe::disabled()))?;
        opts.tokens = Some(table);
    }
    if let Some(dir) = args.get("journal-dir") {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::runtime(format!("create {dir}: {e}"), &Probe::disabled()))?;
        opts.journal_dir = Some(dir.into());
    }
    let daemon = Daemon::bind(listen, opts, dist_worker_handler)
        .map_err(|e| CliError::runtime(format!("bind {listen}: {e}"), &Probe::disabled()))?;
    eprintln!("serve: listening on {}", daemon.local_addr());

    // The signal handlers trip the process-global cancel flag, which this
    // token observes — SIGTERM lands here as the drain trigger.
    let token = CancelToken::new();
    let report = daemon
        .run(&token)
        .map_err(|e| CliError::runtime(format!("serve: {e}"), &Probe::disabled()))?;
    metrics.finish();
    eprintln!(
        "serve: drained (clean={}): {} accepted, {} rejected, {} completed ({} partial), \
         {} deadline cancel(s), {} quarantine(s); jobs {} ok / {} failed / {} skipped; \
         {} journal error(s)",
        report.drained_clean,
        report.accepted,
        report.rejected,
        report.completed,
        report.partial,
        report.deadline_cancels,
        report.quarantines,
        report.jobs_ok,
        report.jobs_failed,
        report.jobs_skipped,
        report.journal_errors,
    );
    Ok(())
}

/// What one loadgen tenant observed.
#[derive(Clone, Debug, Default)]
struct TenantOutcome {
    completed: u64,
    partials: u64,
    rejected: u64,
    timeouts: u64,
    conn_losses: u64,
    divergent: u64,
    saw_drain: bool,
    /// Payloads of the first full (non-partial, all-OK) sweep, for the
    /// `--table-out` diff against `shm sweep`.
    first_full: Option<Vec<String>>,
}

/// `shm loadgen --connect HOST:PORT`: drive a serve daemon with N tenants
/// for S seconds and verify no silent divergence from the serial
/// reference.  `--chaos-seed K` interposes the deterministic fault proxy.
pub fn cmd_loadgen(args: Args) -> Result<(), CliError> {
    let connect = args
        .get("connect")
        .ok_or_else(|| CliError::usage("need --connect HOST:PORT"))?
        .to_string();
    let tenants = args.get_u64("tenants")?.unwrap_or(3).clamp(1, 64) as usize;
    let rps: f64 = match args.get("rps") {
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|r: &f64| *r > 0.0)
            .ok_or_else(|| CliError::usage(format!("bad --rps {raw:?}")))?,
        None => 2.0,
    };
    let duration_s = args.get_u64("duration")?.unwrap_or(3).max(1);
    let deadline_ms = args.get_u64("deadline-ms")?.unwrap_or(0);
    let bench = args
        .get("b")
        .or_else(|| args.get("benchmark"))
        .unwrap_or("fdtd2d")
        .to_string();
    let events = args.get_u64("events")?.unwrap_or(4096);
    let seed = args.get_u64("seed")?.unwrap_or(0xBEEF);

    let profile = BenchmarkProfile::by_name(&bench)
        .ok_or_else(|| CliError::usage(format!("unknown benchmark {bench:?}")))?;
    let _ = profile; // existence check only; workers regenerate from the name
    let jobs: Arc<Vec<(String, String)>> = Arc::new(
        DesignPoint::ALL
            .iter()
            .map(|d| {
                (
                    format!("{bench} under {}", d.name()),
                    SimJob {
                        bench: bench.clone(),
                        events_per_kernel: events,
                        seed,
                        design: d.name().to_string(),
                    }
                    .encode(),
                )
            })
            .collect(),
    );
    // The golden answers, computed serially in-process: any daemon result
    // that claims success with different bytes is a silent divergence.
    let reference: Arc<Vec<String>> = Arc::new(
        jobs.iter()
            .map(|(label, payload)| dist_worker_handler(label, payload))
            .collect(),
    );

    // Optional fault proxy between every tenant and the daemon.  Corruption
    // stays off: a corrupt frame rightly quarantines the tenant at the
    // daemon, which would turn an honest client into a permanent outcast.
    let mut proxy = match args.get_u64("chaos-seed")? {
        Some(chaos_seed) => {
            let upstream: std::net::SocketAddr = connect.parse().map_err(|e| {
                CliError::usage(format!("--chaos-seed needs a numeric HOST:PORT: {e}"))
            })?;
            let cfg = sim_dist::ChaosConfig {
                seed: chaos_seed,
                drop_per_mille: 30,
                dup_per_mille: 30,
                delay_per_mille: 50,
                delay_ms: 5,
                ..sim_dist::ChaosConfig::default()
            };
            let proxy = sim_dist::ChaosProxy::start(upstream, cfg)
                .map_err(|e| CliError::runtime(format!("chaos proxy: {e}"), &Probe::disabled()))?;
            eprintln!(
                "loadgen: chaos proxy {} -> {} (seed {})",
                proxy.local_addr(),
                connect,
                chaos_seed
            );
            Some(proxy)
        }
        None => None,
    };
    let target = proxy
        .as_ref()
        .map_or_else(|| connect.clone(), |p| p.local_addr().to_string());

    let hash = dist_config_hash();
    // Token-gated daemons: every loadgen tenant presents the same token,
    // from --token or the client-side env knob.
    let auth_token = args
        .get("token")
        .map(str::to_string)
        .or_else(|| std::env::var(sim_serve::TOKEN_ENV).ok())
        .unwrap_or_default();
    let handles: Vec<_> = (0..tenants)
        .map(|i| {
            let target = target.clone();
            let jobs = Arc::clone(&jobs);
            let reference = Arc::clone(&reference);
            let auth_token = auth_token.clone();
            std::thread::spawn(move || {
                run_tenant(
                    &format!("tenant-{i}"),
                    &target,
                    hash,
                    &auth_token,
                    &jobs,
                    &reference,
                    deadline_ms,
                    rps,
                    duration_s,
                )
            })
        })
        .collect();
    let outcomes: Vec<TenantOutcome> = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_default())
        .collect();
    if let Some(p) = proxy.as_mut() {
        p.shutdown();
    }

    let mut total = TenantOutcome::default();
    for (i, o) in outcomes.iter().enumerate() {
        println!(
            "loadgen: tenant-{i}: {} completed ({} partial), {} rejected, {} timeouts, \
             {} conn-losses, {} divergent",
            o.completed, o.partials, o.rejected, o.timeouts, o.conn_losses, o.divergent
        );
        total.completed += o.completed;
        total.partials += o.partials;
        total.rejected += o.rejected;
        total.timeouts += o.timeouts;
        total.conn_losses += o.conn_losses;
        total.divergent += o.divergent;
    }
    let min = outcomes.iter().map(|o| o.completed).min().unwrap_or(0);
    let max = outcomes.iter().map(|o| o.completed).max().unwrap_or(0);
    println!(
        "loadgen: total {} completed ({} partial), {} rejected, spread {} (min {min} max {max}), \
         silent:{}",
        total.completed,
        total.partials,
        total.rejected,
        max - min,
        total.divergent > 0
    );

    if let Some(path) = args.get("table-out") {
        let payloads = outcomes
            .iter()
            .find_map(|o| o.first_full.as_ref())
            .ok_or_else(|| {
                CliError::runtime(
                    "no tenant completed a full sweep; cannot write --table-out",
                    &Probe::disabled(),
                )
            })?;
        let stats: Option<Vec<SimStats>> = payloads
            .iter()
            .map(|p| SimStats::decode_journal(p))
            .collect();
        let stats = stats.ok_or_else(|| {
            CliError::runtime(
                "undecodable result payload in completed sweep",
                &Probe::disabled(),
            )
        })?;
        let table = crate::format_sweep_table(&stats, false);
        std::fs::write(path, table)
            .map_err(|e| CliError::runtime(format!("write {path}: {e}"), &Probe::disabled()))?;
        println!("loadgen: table written to {path}");
    }

    if total.divergent > 0 {
        return Err(CliError::chaos(
            format!(
                "loadgen found {} silent divergence(s) across {} tenant(s)",
                total.divergent, tenants
            ),
            &Probe::disabled(),
        ));
    }
    if total.completed == 0 {
        return Err(CliError::runtime(
            "no tenant completed a single sweep",
            &Probe::disabled(),
        ));
    }
    Ok(())
}

/// One tenant's submit/await loop.  Chaos may eat frames, so every await
/// is bounded: a timed-out or rejected sweep is simply resubmitted
/// (wasted work is fine; wrong bytes are not).
#[allow(clippy::too_many_arguments)]
fn run_tenant(
    tenant: &str,
    addr: &str,
    hash: u64,
    auth_token: &str,
    jobs: &[(String, String)],
    reference: &[String],
    deadline_ms: u64,
    rps: f64,
    duration_s: u64,
) -> TenantOutcome {
    let mut out = TenantOutcome::default();
    let pace = Duration::from_secs_f64(1.0 / rps);
    let end = Instant::now() + Duration::from_secs(duration_s);
    let mut client: Option<ServeClient> = None;
    while Instant::now() < end && !out.saw_drain {
        // (Re)connect; chaos can kill the handshake, so retry until the
        // window closes.  A refused hello (quarantine, drain) ends the run.
        if client.is_none() {
            match ServeClient::connect(addr, tenant, hash, auth_token) {
                Ok(c) => client = Some(c),
                Err(sim_dist::DistError::Rejected { .. }) => break,
                Err(_) => {
                    out.conn_losses += 1;
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let req = match c.submit(deadline_ms, jobs) {
            Ok(r) => r,
            Err(_) => {
                client = None;
                out.conn_losses += 1;
                continue;
            }
        };
        match await_outcome(c, req, &mut out) {
            AwaitResult::Done(o) => score_outcome(&o, reference, &mut out),
            AwaitResult::Retry => {}
            AwaitResult::ConnectionLost => {
                client = None;
                out.conn_losses += 1;
            }
        }
        std::thread::sleep(pace);
    }
    if let Some(mut c) = client {
        c.goodbye();
    }
    out
}

enum AwaitResult {
    Done(SweepOutcome),
    Retry,
    ConnectionLost,
}

fn await_outcome(c: &mut ServeClient, req: u64, out: &mut TenantOutcome) -> AwaitResult {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match c.next_event(Duration::from_millis(250)) {
            Ok(Some(ServeEvent::Done(o))) if o.req_id == req => return AwaitResult::Done(o),
            // Stale or duplicated response (chaos dup): ignore.
            Ok(Some(ServeEvent::Done(_) | ServeEvent::Progress { .. })) => {}
            Ok(Some(ServeEvent::Rejected {
                req_id,
                retry_after_ms,
                ..
            })) if req_id == req => {
                out.rejected += 1;
                if retry_after_ms > 0 {
                    std::thread::sleep(Duration::from_millis(retry_after_ms.min(500)));
                }
                return AwaitResult::Retry;
            }
            Ok(Some(ServeEvent::Rejected { .. })) => {}
            Ok(Some(ServeEvent::Draining { .. })) => {
                out.saw_drain = true;
                return AwaitResult::Retry;
            }
            Ok(None) => {
                if Instant::now() >= deadline {
                    out.timeouts += 1;
                    return AwaitResult::Retry;
                }
            }
            Err(_) => return AwaitResult::ConnectionLost,
        }
    }
}

/// Scores one terminal result against the serial reference.  Every OK
/// entry must match its golden payload byte-for-byte — partial results
/// only relax which entries exist, never their bytes.
fn score_outcome(o: &SweepOutcome, reference: &[String], out: &mut TenantOutcome) {
    if !o.digest_ok || o.results.len() != reference.len() {
        out.divergent += 1;
        return;
    }
    let mut ok_entries = 0usize;
    for (i, (status, payload)) in o.results.iter().enumerate() {
        if *status == sim_dist::protocol::JOB_OK {
            if payload != &reference[i] {
                out.divergent += 1;
                return;
            }
            ok_entries += 1;
        }
    }
    if o.partial {
        out.partials += 1;
        out.completed += 1;
    } else if ok_entries == reference.len() {
        out.completed += 1;
        if out.first_full.is_none() {
            out.first_full = Some(o.results.iter().map(|(_, p)| p.clone()).collect());
        }
    } else {
        // Claimed complete but not every entry is OK: a failed job on a
        // non-partial sweep means the handler itself failed.
        out.divergent += 1;
    }
}
