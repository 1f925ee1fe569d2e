//! `shm worker`: a sweep worker for a `--dist` coordinator.

use shm_bench::cli::{Args, Failure};
use shm_telemetry::Probe;

use crate::obs::MetricsGuard;

/// `shm worker --connect HOST:PORT`: serve sweep jobs to a coordinator.
/// Each dispatched job regenerates its trace locally and runs on this
/// host's executor pool; the process keeps reconnecting (with backoff)
/// until the coordinator shuts the cluster down.
pub fn cmd_worker(args: &Args) -> Result<(), Failure> {
    let addr = args
        .get("connect")
        .ok_or_else(|| Failure::usage("need --connect HOST:PORT"))?
        .to_string();
    let metrics = MetricsGuard::from_args(args)?;
    // Heartbeat period and reconnect budget: SHM_HEARTBEAT_MS and
    // SHM_RECONNECT_ATTEMPTS.
    let mut opts = sim_dist::WorkerOptions::from_env();
    opts.jobs = args.jobs();
    if let Some(id) = args.get("id") {
        opts.worker_id = id.to_string();
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
        Err(e) => Err(Failure::runtime(format!("worker: {e}"), &Probe::disabled())),
    }
}
