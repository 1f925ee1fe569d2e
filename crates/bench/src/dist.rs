//! Distributed suite sweeps: the bench-side wiring of `sim-dist`.
//!
//! `sim-dist` moves opaque `(label, payload)` strings; this module owns
//! the payload encoding.  A [`SimJob`] names a benchmark profile, its
//! (scaled) event count, its trace seed and a design point — everything a
//! worker on another host needs to reproduce the exact simulation the
//! local pool would have run.  Results travel back as the same JSON
//! encoding the crash-consistency journal uses, so distributed results
//! are byte-identical to local ones and land in the same journals.
//!
//! The coordinator/worker hello exchanges [`dist_config_hash`], a digest
//! of the protocol version, the benchmark suite, the design-point list
//! and the GPU geometry — deliberately *scale-independent* (per-job event
//! counts ride in the payload), so one running worker fleet serves sweeps
//! at any `--scale`.

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{json, GpuConfig, SimStats};
use shm_recovery::JournalCodec;
use shm_workloads::BenchmarkProfile;
use sim_dist::protocol::PROTOCOL_VERSION;
use sim_dist::{
    run_worker, DistError, DistJob, DistOptions, WorkerOptions, WorkerStats, WorkerSummary,
    DIST_WORKERS_ENV,
};

use crate::config_hash;

/// One simulation job in transportable form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimJob {
    /// Benchmark profile name (must exist in the worker's suite).
    pub bench: String,
    /// Scaled event count the coordinator resolved for this sweep.
    pub events_per_kernel: u64,
    /// Trace seed (normally `trace_seed(bench)`, but `shm sweep` can pin
    /// its own).
    pub seed: u64,
    /// Design point name (must exist in `DesignPoint::ALL`).
    pub design: String,
}

impl SimJob {
    /// Wire encoding.  Benchmark and design names are static identifiers
    /// (no quotes or backslashes), so plain JSON formatting is exact.
    pub fn encode(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"events\":{},\"seed\":{},\"design\":\"{}\"}}",
            self.bench, self.events_per_kernel, self.seed, self.design
        )
    }

    /// The job's label: `"<bench> under <design>"`.
    pub fn label(&self) -> String {
        format!("{} under {}", self.bench, self.design)
    }

    /// The job as the cluster ships it.
    pub fn dist_job(&self) -> DistJob {
        DistJob {
            label: self.label(),
            payload: self.encode(),
        }
    }

    /// Parses [`SimJob::encode`] output.
    pub fn decode(payload: &str) -> Option<Self> {
        Some(SimJob {
            bench: json::str_field(payload, "bench")?,
            events_per_kernel: json::u64_field(payload, "events")?,
            seed: json::u64_field(payload, "seed")?,
            design: json::str_field(payload, "design")?,
        })
    }

    /// Runs the simulation this job describes, exactly as the local pool
    /// would (same config, same trace generation, same seed).
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark or design name — on a worker that
    /// panic is captured and reported back as the job's failure.
    pub fn run(&self) -> SimStats {
        let mut profile = BenchmarkProfile::by_name(&self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark '{}' in dist job", self.bench));
        profile.events_per_kernel = self.events_per_kernel;
        let design = DesignPoint::from_name(&self.design)
            .unwrap_or_else(|| panic!("unknown design '{}' in dist job", self.design));
        let cfg = GpuConfig::default();
        let trace = profile.generate(self.seed);
        Simulator::new(&cfg, design).run(&trace)
    }
}

/// The job handler a sweep worker runs: decode, simulate, encode.
/// Panics (undecodable payloads, unknown names, simulator bugs) are
/// captured by the worker loop and surface as labelled job failures.
pub fn dist_worker_handler(label: &str, payload: &str) -> String {
    let job = SimJob::decode(payload)
        .unwrap_or_else(|| panic!("undecodable dist job payload for '{label}'"));
    let stats = job.run();
    let mut out = String::new();
    stats.encode_journal(&mut out);
    out
}

/// Config hash for the coordinator/worker hello: protocol version, suite
/// composition, design list and GPU geometry.  Scale-independent — event
/// counts travel per-job — so one worker fleet serves any `--scale`.
pub fn dist_config_hash() -> u64 {
    let cfg = GpuConfig::default();
    let mut parts: Vec<String> = vec![format!("dist-protocol:{PROTOCOL_VERSION}")];
    parts.extend(
        BenchmarkProfile::suite()
            .iter()
            .map(|p| format!("bench:{}", p.name)),
    );
    parts.extend(
        DesignPoint::ALL
            .iter()
            .map(|d| format!("design:{}", d.name())),
    );
    parts.push(format!(
        "geometry:{}sm:{}part:{}banks:{}B-l2:{}B-interleave",
        cfg.num_sms,
        cfg.num_partitions,
        cfg.l2_banks_per_partition,
        cfg.l2_bank_bytes,
        cfg.interleave_bytes
    ));
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    config_hash(&refs)
}

/// Runs a worker process serving [`dist_worker_handler`] until the
/// coordinator shuts the sweep down (the `shm worker --connect` loop).
///
/// # Errors
///
/// [`DistError`] when the coordinator is unreachable, rejects the hello,
/// or the connection cannot be re-established within the backoff budget.
pub fn serve_worker(addr: &str, opts: WorkerOptions) -> Result<WorkerSummary, DistError> {
    run_worker(addr, dist_config_hash(), opts, dist_worker_handler)
}

/// How a `--dist` sweep is set up.
#[derive(Clone, Debug)]
pub struct DistSweepConfig {
    /// Address the coordinator binds (port 0 = OS-assigned, loopback
    /// clusters read it back).
    pub bind: String,
    /// In-process loopback workers to spawn for the duration of the sweep
    /// (from `SHM_DIST_WORKERS`); 0 means external workers only.
    pub self_workers: usize,
    /// Cluster tunables.
    pub opts: DistOptions,
}

impl DistSweepConfig {
    /// A config binding `bind`, with `SHM_DIST_WORKERS` self workers and
    /// cluster tunables (heartbeat miss window) from the environment.
    pub fn from_env(bind: &str) -> Self {
        Self {
            bind: bind.to_string(),
            self_workers: self_workers_from_env(),
            opts: DistOptions::from_env(),
        }
    }
}

/// Parses `SHM_DIST_WORKERS`: unset or `0` means no self-spawned workers;
/// garbage warns and means 0 (mirrors the `SHM_JOBS` policy).
pub fn self_workers_from_env() -> usize {
    match std::env::var(DIST_WORKERS_ENV) {
        Err(_) => 0,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "warning: ignoring {DIST_WORKERS_ENV}={raw:?} (expected a \
                     non-negative integer); spawning no loopback workers"
                );
                0
            }
        },
    }
}

/// Per-sweep cluster accounting, surfaced in the flight recorder and on
/// stderr after a `--dist` run.
#[derive(Clone, Debug, Default)]
pub struct DistSummary {
    /// Per-worker stats in connection order (empty in degraded mode).
    pub workers: Vec<WorkerStats>,
    /// Jobs re-queued from dead workers.
    pub reassignments: u64,
    /// True when no worker was reachable and the sweep fell back to the
    /// local executor.
    pub degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_seed;

    #[test]
    fn sim_job_round_trips() {
        let job = SimJob {
            bench: "fdtd2d".into(),
            events_per_kernel: 4096,
            seed: trace_seed("fdtd2d"),
            design: "SHM".into(),
        };
        assert_eq!(SimJob::decode(&job.encode()), Some(job));
    }

    #[test]
    fn handler_reproduces_run_one_exactly() {
        let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("in suite");
        profile.events_per_kernel = 4096;
        let local = {
            let cfg = GpuConfig::default();
            let trace = profile.generate(trace_seed("fdtd2d"));
            Simulator::new(&cfg, DesignPoint::Shm).run(&trace)
        };
        let job = SimJob {
            bench: "fdtd2d".into(),
            events_per_kernel: 4096,
            seed: trace_seed("fdtd2d"),
            design: "SHM".into(),
        };
        let wire = dist_worker_handler("fdtd2d under SHM", &job.encode());
        assert_eq!(SimStats::decode_journal(&wire), Some(local));
    }

    #[test]
    fn dist_config_hash_is_stable_across_calls() {
        assert_eq!(dist_config_hash(), dist_config_hash());
    }
}
