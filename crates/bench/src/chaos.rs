//! The chaos campaign: adversarial validation of the distributed sweep.
//!
//! Every robustness claim the cluster makes — CRC fail-closed framing,
//! end-to-end result digests, byzantine audit + quarantine, dispatch
//! timeouts, reconnect backoff, crash-resume from the job journal — is
//! only worth what survives contact with an adversary.  This module runs
//! the full suite sweep through a gauntlet of deterministic, seeded fault
//! scenarios (a [`ChaosProxy`] between workers and coordinator, byzantine
//! worker knobs, a simulated coordinator crash) and classifies each
//! outcome:
//!
//! * [`Verdict::Identical`] — the sweep completed and its merged tables
//!   are byte-identical to the fault-free golden run.  The defense
//!   *recovered*.
//! * [`Verdict::Detected`] — the sweep failed with a clean, labelled
//!   error.  The defense *refused* rather than guessed.
//! * [`Verdict::Silent`] — the sweep "succeeded" with different bytes.
//!   This is the one outcome that must never happen; the campaign exit
//!   code and CI both key off it.
//!
//! Everything is seeded: same `--seed` and schedule, same fault pattern,
//! same classification — which is itself a regression test
//! (`tests/chaos_campaign.rs`).

use std::path::Path;
use std::thread;

use gpu_mem_sim::DesignPoint;
use gpu_types::SimStats;
use shm_recovery::JournalCodec;
use sim_dist::{
    run_worker, ChaosConfig, ChaosProxy, ChaosStats, Coordinator, DistJob, DistOptions,
    PartitionWindow, WorkerOptions,
};
use sim_exec::{CancelToken, Executor};

use crate::dist::{dist_config_hash, dist_worker_handler, DistSweepConfig, SimJob};
use crate::{format_table, Backend, BenchRow, Journal, Sweep};

/// Design points the campaign sweeps (baseline rides along implicitly).
pub const CHAOS_DESIGNS: &[DesignPoint] = &[DesignPoint::Pssm, DesignPoint::Shm];

/// Journal appends after which the crash-resume scenario's coordinator
/// "dies"; its resume must reuse at least this many jobs.
const CRASH_AFTER_JOBS: usize = 3;

/// How a chaos scenario ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Sweep completed; merged tables byte-identical to the golden run.
    Identical,
    /// Sweep failed with a clean labelled error (the attached detail).
    Detected(String),
    /// Sweep reported success but the tables differ — silent divergence.
    Silent(String),
}

impl Verdict {
    /// True only for the forbidden outcome.
    pub fn is_silent(&self) -> bool {
        matches!(self, Verdict::Silent(_))
    }
}

/// One scenario's outcome plus its fault/defense accounting.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name (stable identifier, also the flight-recorder key).
    pub name: &'static str,
    /// Outcome classification.
    pub verdict: Verdict,
    /// Faults the proxy injected (0 for proxy-less scenarios).
    pub faults: u64,
    /// Proxy-side fault breakdown, when a proxy was in the path.
    pub proxy: Option<ChaosStats>,
    /// Workers quarantined by the byzantine defense.
    pub quarantines: u64,
    /// Audit copy disagreements observed.
    pub audit_mismatches: u64,
    /// End-to-end digest mismatches observed.
    pub digest_mismatches: u64,
    /// Dispatch timeouts that rescued dropped frames.
    pub dispatch_timeouts: u64,
    /// Jobs requeued off dead workers.
    pub reassignments: u64,
}

impl ScenarioResult {
    /// One greppable line: `scenario=<name> verdict=<v> ... silent:<bool>`.
    /// CI greps for `silent:true`; none may ever appear.
    pub fn render_line(&self) -> String {
        let (verdict, detail) = match &self.verdict {
            Verdict::Identical => ("identical", String::new()),
            Verdict::Detected(d) => ("detected", format!(" detail={:?}", d)),
            Verdict::Silent(d) => ("SILENT-DIVERGENCE", format!(" detail={:?}", d)),
        };
        format!(
            "scenario={} verdict={verdict}{detail} faults={} quarantines={} \
             audit_mismatches={} digest_mismatches={} dispatch_timeouts={} \
             reassignments={} silent:{}",
            self.name,
            self.faults,
            self.quarantines,
            self.audit_mismatches,
            self.digest_mismatches,
            self.dispatch_timeouts,
            self.reassignments,
            self.verdict.is_silent(),
        )
    }
}

/// A full campaign run: per-scenario results plus the golden table text.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Schedule name (`smoke` or `full`).
    pub schedule: String,
    /// Campaign seed (drives fault rolls and audit sampling).
    pub seed: u64,
    /// Per-scenario outcomes, schedule order.
    pub scenarios: Vec<ScenarioResult>,
    /// Rendered golden table every scenario was compared against.
    pub golden_table: String,
}

impl ChaosReport {
    /// Scenarios that diverged silently (must be 0).
    pub fn silent_divergences(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.verdict.is_silent())
            .count()
    }

    /// Scenarios that recovered to byte-identical tables.
    pub fn identical(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| s.verdict == Verdict::Identical)
            .count()
    }

    /// Scenarios that failed with a clean labelled error.
    pub fn detected(&self) -> usize {
        self.scenarios
            .iter()
            .filter(|s| matches!(s.verdict, Verdict::Detected(_)))
            .count()
    }

    /// Human- and grep-friendly campaign summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos campaign schedule={} seed={} scenarios={}\n",
            self.schedule,
            self.seed,
            self.scenarios.len()
        );
        for s in &self.scenarios {
            out.push_str(&s.render_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "chaos summary: identical={} detected={} silent={}\n",
            self.identical(),
            self.detected(),
            self.silent_divergences()
        ));
        out
    }

    /// Flight-recorder dump: one JSON line per scenario.
    pub fn flight_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            let (verdict, detail) = verdict_parts(s);
            out.push_str(&format!(
                "{{\"scenario\":\"{}\",\"verdict\":\"{verdict}\",\"detail\":{detail},\
                 \"faults\":{},\"quarantines\":{},\"audit_mismatches\":{},\
                 \"digest_mismatches\":{},\"dispatch_timeouts\":{},\"reassignments\":{},\
                 \"silent\":{}}}\n",
                s.name,
                s.faults,
                s.quarantines,
                s.audit_mismatches,
                s.digest_mismatches,
                s.dispatch_timeouts,
                s.reassignments,
                s.verdict.is_silent(),
            ));
        }
        out
    }
}

fn verdict_parts(s: &ScenarioResult) -> (&'static str, String) {
    match &s.verdict {
        Verdict::Identical => ("identical", "null".to_string()),
        Verdict::Detected(d) => ("detected", format!("{:?}", d)),
        Verdict::Silent(d) => ("silent", format!("{:?}", d)),
    }
}

/// What one scenario perturbs.
struct Scenario {
    name: &'static str,
    /// Proxy fault pattern (seed is filled in from the campaign seed).
    chaos: Option<ChaosConfig>,
    /// Byzantine knobs for the second worker.
    byz_lie_every: Option<u64>,
    byz_bad_digest_every: Option<u64>,
    /// Audit sampling for this scenario (per-mille).
    audit_per_mille: u32,
    /// Coordinator crash-resume from the job journal instead of a plain
    /// run.
    crash_resume: bool,
}

impl Scenario {
    fn plain(name: &'static str) -> Self {
        Scenario {
            name,
            chaos: None,
            byz_lie_every: None,
            byz_bad_digest_every: None,
            audit_per_mille: 0,
            crash_resume: false,
        }
    }
}

fn smoke_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            audit_per_mille: 250,
            ..Scenario::plain("baseline-audit")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                corrupt_per_mille: 25,
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("frame-corrupt")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                drop_per_mille: 15,
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("frame-drop")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                dup_per_mille: 60,
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("frame-dup")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                reset_after_frames: Some(16),
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("conn-reset")
        },
        Scenario {
            byz_bad_digest_every: Some(3),
            ..Scenario::plain("byz-bad-digest")
        },
        Scenario {
            byz_lie_every: Some(3),
            // Full audit: a consistent liar is invisible to digests, only
            // redundant dispatch catches it.
            audit_per_mille: 1000,
            ..Scenario::plain("byz-lie-full-audit")
        },
        Scenario {
            crash_resume: true,
            ..Scenario::plain("coord-crash-resume")
        },
    ]
}

fn full_scenarios() -> Vec<Scenario> {
    let mut v = smoke_scenarios();
    v.extend([
        Scenario {
            chaos: Some(ChaosConfig {
                truncate_per_mille: 12,
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("frame-truncate")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                delay_per_mille: 80,
                delay_ms: 40,
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("frame-delay")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                // Longer than the heartbeat timeout: the coordinator must
                // declare the workers dead, then heal after the window.
                partitions: vec![PartitionWindow {
                    start_ms: 300,
                    duration_ms: 2_500,
                }],
                ..ChaosConfig::default()
            }),
            ..Scenario::plain("partition-outlives-heartbeat")
        },
        Scenario {
            chaos: Some(ChaosConfig {
                drop_per_mille: 10,
                dup_per_mille: 30,
                corrupt_per_mille: 10,
                delay_per_mille: 50,
                delay_ms: 15,
                ..ChaosConfig::default()
            }),
            byz_bad_digest_every: Some(5),
            audit_per_mille: 500,
            ..Scenario::plain("mayhem")
        },
    ]);
    v
}

fn scenario_dist_opts(s: &Scenario, seed: u64) -> DistOptions {
    DistOptions {
        connect_wait_ms: 10_000,
        heartbeat_timeout_ms: 2_000,
        read_timeout_ms: 25,
        retry_budget: 256,
        audit_per_mille: s.audit_per_mille,
        audit_seed: seed,
        // Rescues dispatch/result frames the proxy eats; generous versus
        // worst-case job runtime at campaign scale.
        dispatch_timeout_ms: 3_000,
    }
}

fn scenario_worker_opts(id: &str, s: &Scenario, byzantine: bool) -> WorkerOptions {
    WorkerOptions {
        worker_id: id.into(),
        jobs: Some(1),
        heartbeat_interval_ms: 100,
        read_timeout_ms: 25,
        reconnect_base_ms: 25,
        reconnect_max_ms: 200,
        // Enough headroom to reconnect through a partition window.
        max_reconnect_attempts: 40,
        byzantine_lie_every: if byzantine { s.byz_lie_every } else { None },
        byzantine_bad_digest_every: if byzantine {
            s.byz_bad_digest_every
        } else {
            None
        },
        ..WorkerOptions::default()
    }
}

/// Renders merged rows exactly the way every comparison in this module
/// (and the determinism test) does.
pub fn render_rows(rows: &[BenchRow]) -> String {
    let header: Vec<&str> = CHAOS_DESIGNS.iter().map(|d| d.name()).collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                CHAOS_DESIGNS.iter().map(|d| row.norm_ipc(*d)).collect(),
            )
        })
        .collect();
    format_table("chaos golden", &header, &table)
}

fn classify(rendered: &str, golden: &str) -> Verdict {
    if rendered == golden {
        Verdict::Identical
    } else {
        Verdict::Silent("merged tables differ from golden run".to_string())
    }
}

fn run_cluster_scenario(s: &Scenario, seed: u64, scale: f64, golden: &str) -> ScenarioResult {
    let sweep = Sweep::suite(CHAOS_DESIGNS, scale);
    let jobs: Vec<DistJob> = sweep.jobs.iter().map(SimJob::dist_job).collect();
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let hash = dist_config_hash();

    let mut result = ScenarioResult {
        name: s.name,
        verdict: Verdict::Detected("scenario did not run".into()),
        faults: 0,
        proxy: None,
        quarantines: 0,
        audit_mismatches: 0,
        digest_mismatches: 0,
        dispatch_timeouts: 0,
        reassignments: 0,
    };

    let coord = match Coordinator::bind("127.0.0.1:0", hash, scenario_dist_opts(s, seed)) {
        Ok(c) => c,
        Err(e) => {
            result.verdict = Verdict::Detected(format!("bind failed: {e}"));
            return result;
        }
    };
    let upstream = coord.local_addr();

    // Workers dial the chaos proxy when the scenario has one; otherwise
    // they talk to the coordinator directly.
    let mut proxy = match &s.chaos {
        Some(cfg) => match ChaosProxy::start(
            upstream,
            ChaosConfig {
                seed,
                ..cfg.clone()
            },
        ) {
            Ok(p) => Some(p),
            Err(e) => {
                result.verdict = Verdict::Detected(format!("proxy failed: {e}"));
                return result;
            }
        },
        None => None,
    };
    let worker_addr = proxy
        .as_ref()
        .map(|p| p.local_addr())
        .unwrap_or(upstream)
        .to_string();

    let (a1, a2) = (worker_addr.clone(), worker_addr);
    let honest = scenario_worker_opts("w-honest", s, false);
    let second = scenario_worker_opts("w-second", s, true);
    let w1 = thread::spawn(move || run_worker(&a1, hash, honest, dist_worker_handler));
    let w2 = thread::spawn(move || run_worker(&a2, hash, second, dist_worker_handler));

    let report = coord.run(jobs, &CancelToken::new());
    // Kill the proxy before joining workers so post-sweep reconnect
    // attempts fail fast instead of burning the full backoff budget.
    if let Some(p) = proxy.as_mut() {
        result.proxy = Some(p.stats());
        result.faults = p.stats().faults();
        p.shutdown();
    }
    let _ = w1.join();
    let _ = w2.join();

    match report {
        Err(e) => result.verdict = Verdict::Detected(format!("cluster error: {e}")),
        Ok(rep) => {
            result.quarantines = rep.quarantines;
            result.audit_mismatches = rep.audit_mismatches;
            result.digest_mismatches = rep.digest_mismatches;
            result.dispatch_timeouts = rep.dispatch_timeouts;
            result.reassignments = rep.reassignments;

            let mut stats: Vec<SimStats> = Vec::with_capacity(rep.results.len());
            let mut detected: Option<String> = None;
            for (i, outcome) in rep.results.iter().enumerate() {
                match outcome {
                    None => {
                        detected.get_or_insert(format!("{} never resolved", labels[i]));
                    }
                    Some(Err(p)) => {
                        detected.get_or_insert(format!("{} failed: {}", labels[i], p.message));
                    }
                    Some(Ok(payload)) => match SimStats::decode_journal(payload) {
                        Some(st) => stats.push(st),
                        None => {
                            detected.get_or_insert(format!("{} returned undecodable", labels[i]));
                        }
                    },
                }
            }
            result.verdict = match detected {
                Some(d) => Verdict::Detected(d),
                None => classify(&render_rows(&sweep.rows(stats)), golden),
            };
        }
    }
    result
}

fn run_crash_resume_scenario(
    s: &Scenario,
    seed: u64,
    scale: f64,
    golden: &str,
    dir: &Path,
) -> ScenarioResult {
    let mut result = ScenarioResult {
        name: s.name,
        verdict: Verdict::Detected("scenario did not run".into()),
        faults: 0,
        proxy: None,
        quarantines: 0,
        audit_mismatches: 0,
        digest_mismatches: 0,
        dispatch_timeouts: 0,
        reassignments: 0,
    };
    let mut sweep = Sweep::suite(CHAOS_DESIGNS, scale);
    sweep.backend = Backend::Dist(DistSweepConfig {
        bind: "127.0.0.1:0".into(),
        self_workers: 2,
        opts: scenario_dist_opts(s, seed),
    });
    // The coordinator "dies" after a few journal appends: the cancel
    // fires, in-flight jobs drain into the journal, rows are withheld.
    let journal = Journal::figure(
        dir,
        &format!("chaos-journal-{seed}"),
        &sweep.jobs,
        Some(CRASH_AFTER_JOBS),
    );
    let _ = std::fs::remove_file(&journal.path);
    let path = journal.path.clone();
    sweep.journal = Some(journal);

    match sweep.run(|_, job| job.run()) {
        Ok(run) => {
            if let Some(stats) = run.complete() {
                let rows = sweep.rows(stats);
                // Too fast to interrupt is still a completed run; verify it.
                result.verdict = classify(&render_rows(&rows), golden);
                let _ = std::fs::remove_file(&path);
                return result;
            }
        }
        Err(e) => {
            result.verdict = Verdict::Detected(format!("crash phase failed: {e}"));
            return result;
        }
    }

    // A fresh coordinator resumes from the journal and must finish
    // byte-identical, re-running only the jobs it does not hold.
    if let Some(journal) = sweep.journal.as_mut() {
        journal.crash_after_jobs = None;
    }
    match sweep.run(|_, job| job.run()) {
        Ok(run) => {
            result.reassignments = run.cluster.as_ref().map_or(0, |c| c.reassignments);
            result.verdict = match run.complete() {
                Some(_) if run.reused < CRASH_AFTER_JOBS => Verdict::Detected(format!(
                    "resume reused {} of the {CRASH_AFTER_JOBS}+ journaled jobs",
                    run.reused
                )),
                Some(stats) => classify(&render_rows(&sweep.rows(stats)), golden),
                None => Verdict::Detected("resume did not complete".into()),
            };
        }
        Err(e) => result.verdict = Verdict::Detected(format!("resume failed: {e}")),
    }
    let _ = std::fs::remove_file(&path);
    result
}

/// Runs the chaos campaign: a golden fault-free sweep, then every
/// scenario in `schedule` (`"smoke"` or `"full"`), comparing merged
/// tables byte-for-byte.  The flight-recorder dump lands in
/// `dir/chaos_flight_<schedule>_<seed>.jsonl`.
///
/// # Errors
///
/// A message when the golden run itself fails or the flight recorder
/// cannot be written; scenario failures are never errors — they classify
/// as [`Verdict::Detected`] (or, catastrophically, [`Verdict::Silent`]).
pub fn run_chaos_campaign(
    schedule: &str,
    seed: u64,
    scale: f64,
    dir: &Path,
) -> Result<ChaosReport, String> {
    let scenarios = match schedule {
        "full" => full_scenarios(),
        _ => smoke_scenarios(),
    };
    let golden_sweep = Sweep {
        backend: Backend::Local(Executor::new(1)),
        ..Sweep::suite(CHAOS_DESIGNS, scale)
    };
    let golden_run = golden_sweep
        .run(|_, job| job.run())
        .map_err(|e| format!("golden sweep: {e}"))?;
    let golden_stats = golden_run.complete().ok_or("golden sweep interrupted")?;
    let golden = render_rows(&golden_sweep.rows(golden_stats));

    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut results = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let r = if s.crash_resume {
            run_crash_resume_scenario(s, seed, scale, &golden, dir)
        } else {
            run_cluster_scenario(s, seed, scale, &golden)
        };
        eprintln!("{}", r.render_line());
        results.push(r);
    }

    let report = ChaosReport {
        schedule: schedule.to_string(),
        seed,
        scenarios: results,
        golden_table: golden,
    };
    let flight = dir.join(format!("chaos_flight_{schedule}_{seed}.jsonl"));
    std::fs::write(&flight, report.flight_lines())
        .map_err(|e| format!("write {}: {e}", flight.display()))?;
    Ok(report)
}
