//! `repro` — regenerates every table and figure of the SHM evaluation.
//!
//! Usage: `repro [fig5|fig10|fig11|fig12|fig13|fig14|fig15|fig16|table1|table3_4|table7|table9|micro|sensitivity|hetero|bench|all] [--scale X] [--jobs N] [--telemetry-dir DIR] [--bench-out PATH] [--journal DIR [--resume] [--crash-after-jobs N]]`
//!
//! The `hetero` target renders the heterogeneous-pool placement sweep; it
//! is deliberately *not* part of `all`, which stays byte-identical to a
//! pool-free build.
//!
//! With `--journal DIR`, the suite-based figures (fig12–fig16) checkpoint
//! every completed (benchmark, design) job to `DIR/<figure>.jsonl` as it
//! lands.  An interrupted run (SIGINT/SIGTERM, exit code 130) leaves those
//! journals valid; re-running with `--resume` skips the completed jobs and
//! produces byte-identical tables.  `--crash-after-jobs N` deterministically
//! cancels the sweep after N fresh completions (CI crash-recovery smoke).
//!
//! Figures run their (benchmark × design) simulations on the `sim-exec`
//! worker pool; `--jobs N` bounds the pool (1 = serial) and the
//! `SHM_JOBS` environment variable is the session-wide override.  Results
//! are reassembled in submission order, so the printed tables are
//! byte-identical at any worker count.
//!
//! The `bench` target renders every figure across a (scale × jobs) grid —
//! scales {0.05, 0.25} plus any explicit `--scale`, serial plus the
//! resolved worker count — timing each point, verifying every parallel
//! rendering matches its serial reference byte-for-byte, and writing the
//! whole trajectory to `BENCH_throughput.json` (see `--bench-out`).
//!
//! With `--telemetry-dir DIR`, every figure target additionally captures a
//! representative telemetry trace (first suite benchmark under SHM) as
//! `DIR/<figure>.jsonl` — epoch bandwidth series for Fig. 14-style plots.
//!
//! Absolute numbers differ from the paper (the substrate is a trace-driven
//! simulator, not GPGPU-Sim on the authors' machines); the *shapes* —
//! design ordering, approximate factors, which benchmarks benefit — are the
//! reproduction target (see EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use gpu_mem_sim::{DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, ShmConfig};
use shm::{required_mechanisms, DataProperty, OracleProfile};
use shm_bench::dist::{DistSummary, DistSweepConfig};
use shm_bench::{
    format_table, mean, scaled_suite, traffic_breakdown, Backend, BenchRow, Executor, Journal,
    Sweep,
};
use shm_telemetry::{Probe, TelemetryConfig};

/// Every figure target, in `all` order (tables have no telemetry series).
const FIGURES: &[&str] = &[
    "fig5", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
];

/// A repro failure carrying the process exit code and, when a telemetry
/// capture was in flight, the probe whose flight recorder gets dumped.
struct ReproError {
    message: String,
    code: u8,
    probe: Probe,
}

impl ReproError {
    fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 2,
            probe: Probe::disabled(),
        }
    }

    fn runtime(message: impl Into<String>, probe: &Probe) -> Self {
        Self {
            message: message.into(),
            code: 1,
            probe: probe.clone(),
        }
    }

    /// Cooperative cancellation stopped a journaled sweep early; exit code
    /// 130 so scripts can tell resumable interruption from failure.
    fn interrupted(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: 130,
            probe: Probe::disabled(),
        }
    }

    fn report(self) -> ExitCode {
        eprintln!("error: {}", self.message);
        if let Some(dump) = self.probe.flight_dump().filter(|d| !d.is_empty()) {
            eprintln!("--- flight recorder (last events before failure) ---");
            eprint!("{dump}");
        }
        ExitCode::from(self.code)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report(),
    }
}

/// Checkpoint/resume options for the suite-based figures.
#[derive(Clone)]
struct JournalCtx {
    dir: String,
    resume: bool,
    crash_after_jobs: Option<usize>,
}

/// How the suite-based figures execute their sweeps: optionally through a
/// journal (`--journal`), optionally on a worker cluster (`--dist`); the
/// two compose (dist results land in the same journals local runs use).
#[derive(Default)]
struct SweepCtx {
    jctx: Option<JournalCtx>,
    dist: Option<DistSweepConfig>,
}

/// Prints the cluster accounting of a distributed sweep to stderr (stdout
/// must stay byte-identical to a local run).
fn report_dist(figure: &str, summary: &DistSummary) {
    if summary.degraded {
        return; // the fallback path already warned
    }
    for w in &summary.workers {
        eprintln!(
            "{figure}: worker {}: {} job(s), {} B out, {} B in, {} reassigned",
            w.id, w.jobs_done, w.bytes_sent, w.bytes_received, w.reassigned
        );
    }
    if summary.reassignments > 0 {
        eprintln!(
            "{figure}: {} job(s) reassigned after worker loss",
            summary.reassignments
        );
    }
}

/// How a figure rendering failed: a resumable interruption of a journaled
/// sweep, or an ordinary failure.
enum FigError {
    Interrupted { journal: String, done: Vec<String> },
    Failed(String),
}

impl From<String> for FigError {
    fn from(message: String) -> Self {
        FigError::Failed(message)
    }
}

/// Runs one figure's suite sweep, through the journal when `--journal` was
/// given.  `Err(Interrupted)` means everything completed so far is safely
/// journaled and a `--resume` re-run will skip it.
fn suite_rows(
    figure: &str,
    designs: &[DesignPoint],
    scale: f64,
    jobs: Option<usize>,
    sctx: &SweepCtx,
) -> Result<Vec<BenchRow>, FigError> {
    let mut sweep = Sweep::suite(designs, scale);
    sweep.backend = match &sctx.dist {
        Some(cfg) => Backend::Dist(cfg.clone()),
        None => Backend::Local(Executor::from_request(jobs)),
    };
    if let Some(ctx) = &sctx.jctx {
        let journal = Journal::figure(
            std::path::Path::new(&ctx.dir),
            figure,
            &sweep.jobs,
            ctx.crash_after_jobs,
        );
        if !ctx.resume && journal.path.exists() {
            return Err(FigError::Failed(format!(
                "journal {}/{figure}.jsonl already exists; pass --resume to continue it or remove it",
                ctx.dir
            )));
        }
        sweep.journal = Some(journal);
    }
    let run = sweep
        .run(|_, job| job.run())
        .map_err(|e| FigError::Failed(format!("{figure} sweep failed: {e}")))?;
    if let Some(summary) = &run.cluster {
        report_dist(figure, summary);
    }
    let journal = sweep.journal.as_ref().map(|j| j.path.display().to_string());
    if let Some(path) = journal.as_ref().filter(|_| run.reused > 0) {
        eprintln!(
            "{figure}: resumed from {path}: {} job(s) reused, {} executed",
            run.reused, run.executed
        );
    }
    match (run.complete(), journal) {
        (Some(stats), _) => Ok(sweep.rows(stats)),
        (None, Some(journal)) => Err(FigError::Interrupted {
            journal,
            done: run.completed_labels,
        }),
        (None, None) => Err(FigError::Failed(format!("{figure} sweep interrupted"))),
    }
}

fn run(args: &[String]) -> Result<(), ReproError> {
    let mut what = "all".to_string();
    let mut scale = 0.5f64;
    let mut scale_explicit = false;
    let mut jobs: Option<usize> = None;
    let mut telemetry_dir: Option<String> = None;
    let mut bench_out = "BENCH_throughput.json".to_string();
    let mut journal_dir: Option<String> = None;
    let mut resume = false;
    let mut crash_after_jobs: Option<usize> = None;
    let mut dist_bind: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--journal" => {
                journal_dir = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| ReproError::usage("--journal needs a directory"))?,
                );
                i += 2;
                continue;
            }
            "--resume" => {
                resume = true;
                i += 1;
                continue;
            }
            "--crash-after-jobs" => {
                crash_after_jobs = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| ReproError::usage("--crash-after-jobs needs a count"))?,
                );
                i += 2;
                continue;
            }
            _ => {}
        }
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ReproError::usage("--scale needs a number"))?;
                scale_explicit = true;
                i += 2;
            }
            "--jobs" => {
                let raw = args
                    .get(i + 1)
                    .ok_or_else(|| ReproError::usage("--jobs needs a value"))?;
                jobs = sim_exec::parse_jobs_spec(raw);
                if jobs.is_none() {
                    eprintln!(
                        "warning: ignoring --jobs {raw:?} (expected a positive integer); \
                         using auto parallelism"
                    );
                }
                i += 2;
            }
            "--dist" => {
                dist_bind = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| ReproError::usage("--dist needs a bind address"))?,
                );
                i += 2;
            }
            "--telemetry-dir" => {
                telemetry_dir = Some(
                    args.get(i + 1)
                        .cloned()
                        .ok_or_else(|| ReproError::usage("--telemetry-dir needs a path"))?,
                );
                i += 2;
            }
            "--bench-out" => {
                bench_out = args
                    .get(i + 1)
                    .cloned()
                    .ok_or_else(|| ReproError::usage("--bench-out needs a path"))?;
                i += 2;
            }
            other => {
                what = other.to_string();
                i += 1;
            }
        }
    }

    if (resume || crash_after_jobs.is_some()) && journal_dir.is_none() {
        return Err(ReproError::usage(
            "--resume/--crash-after-jobs require --journal DIR",
        ));
    }
    let sctx = SweepCtx {
        jctx: journal_dir.map(|dir| JournalCtx {
            dir,
            resume,
            crash_after_jobs,
        }),
        dist: dist_bind.map(|bind| DistSweepConfig::from_env(&bind)),
    };

    if what == "bench" {
        bench_mode(scale_explicit.then_some(scale), jobs, &bench_out)?;
    } else {
        match render_target(&what, scale, jobs, &sctx) {
            Ok(Some(text)) => print!("{text}"),
            Ok(None) => return Err(ReproError::usage(format!("unknown target: {what}"))),
            Err(FigError::Interrupted { journal, done }) => {
                eprintln!(
                    "interrupted: {} job(s) completed and journaled in {journal}",
                    done.len()
                );
                for label in &done {
                    eprintln!("  done {label}");
                }
                eprintln!("re-run with --resume to pick up where this left off");
                return Err(ReproError::interrupted("figure sweep interrupted"));
            }
            Err(FigError::Failed(e)) => {
                return Err(ReproError::runtime(e, &Probe::disabled()));
            }
        }
    }

    if let Some(dir) = &telemetry_dir {
        let figures: Vec<&str> = if what == "all" {
            FIGURES.to_vec()
        } else if FIGURES.contains(&what.as_str()) {
            vec![what.as_str()]
        } else {
            println!("(no telemetry series for target {what})");
            Vec::new()
        };
        for fig in figures {
            dump_figure_telemetry(dir, fig, scale)?;
        }
    }
    Ok(())
}

/// Renders one named target (or `all`) to a string; `Ok(None)` for unknown
/// targets, `Err` when a simulation job failed or a journaled sweep was
/// interrupted.  Keeping figures as strings lets `bench` compare serial and
/// parallel renderings byte-for-byte.
fn render_target(
    what: &str,
    scale: f64,
    jobs: Option<usize>,
    sctx: &SweepCtx,
) -> Result<Option<String>, FigError> {
    Ok(Some(match what {
        "table1" => table1(),
        "table3_4" => table3_4(),
        "table7" => table7(scale, jobs)?,
        "table9" => table9(),
        "fig5" => fig5(scale, jobs)?,
        "fig10" => fig10(scale, jobs)?,
        "fig11" => fig11(scale, jobs)?,
        "fig12" => fig12(scale, jobs, sctx)?,
        "fig13" => fig13(scale, jobs, sctx)?,
        "fig14" => fig14(scale, jobs, sctx)?,
        "fig15" => fig15(scale, jobs, sctx)?,
        "fig16" => fig16(scale, jobs, sctx)?,
        "micro" => micro_diag(),
        "sensitivity" => sensitivity(scale),
        "hetero" => hetero(scale, jobs)?,
        "all" => {
            let mut out = String::new();
            out.push_str(&table1());
            out.push_str(&table9());
            out.push_str(&table3_4());
            out.push_str(&fig5(scale, jobs)?);
            out.push_str(&table7(scale, jobs)?);
            out.push_str(&fig10(scale, jobs)?);
            out.push_str(&fig11(scale, jobs)?);
            out.push_str(&fig12(scale, jobs, sctx)?);
            out.push_str(&fig13(scale, jobs, sctx)?);
            out.push_str(&fig14(scale, jobs, sctx)?);
            out.push_str(&fig15(scale, jobs, sctx)?);
            out.push_str(&fig16(scale, jobs, sctx)?);
            out
        }
        _ => return Ok(None),
    }))
}

/// Trace-scale grid every `bench` run covers (an explicit `--scale` adds a
/// third point).  Small scale exposes fixed per-job overhead; the larger
/// one is dominated by the simulation hot loop.
const BENCH_SCALES: [f64; 2] = [0.05, 0.25];

/// `bench` target: renders every figure across a (scale × jobs) grid,
/// timing each point and verifying that every parallel rendering is
/// byte-identical to the serial reference at the same scale.  The whole
/// trajectory is recorded as JSON (see `--bench-out`).
fn bench_mode(
    explicit_scale: Option<f64>,
    jobs: Option<usize>,
    out_path: &str,
) -> Result<(), ReproError> {
    let workers = Executor::from_request(jobs).jobs();
    let mut scales: Vec<f64> = BENCH_SCALES.to_vec();
    if let Some(s) = explicit_scale {
        if !scales.iter().any(|&x| (x - s).abs() < 1e-12) {
            scales.push(s);
        }
    }
    scales.sort_by(f64::total_cmp);
    // The jobs axis: the serial reference, plus the resolved worker count
    // when it actually is parallel.
    let mut jobs_axis = vec![1usize];
    if workers > 1 {
        jobs_axis.push(workers);
    }

    let render_all = |scale: f64, jobs: usize| -> Result<String, ReproError> {
        render_target("all", scale, Some(jobs), &SweepCtx::default())
            .map_err(|e| match e {
                FigError::Interrupted { journal, .. } => {
                    ReproError::interrupted(format!("bench sweep interrupted (journal {journal})"))
                }
                FigError::Failed(msg) => ReproError::runtime(msg, &Probe::disabled()),
            })?
            .ok_or_else(|| ReproError::usage("render target \"all\" is unknown"))
    };

    let mut point_lines: Vec<String> = Vec::new();
    let mut all_identical = true;
    let mut first_divergence: Option<String> = None;
    for &scale in &scales {
        let t0 = Instant::now();
        let reference = render_all(scale, 1)?;
        let serial_wall = t0.elapsed().as_secs_f64();
        for &j in &jobs_axis {
            let (wall, identical) = if j == 1 {
                // The serial rendering IS the reference for this scale.
                (serial_wall, true)
            } else {
                let t1 = Instant::now();
                let parallel = render_all(scale, j)?;
                let wall = t1.elapsed().as_secs_f64();
                let identical = parallel == reference;
                if !identical && first_divergence.is_none() {
                    first_divergence = Some(
                        reference
                            .lines()
                            .zip(parallel.lines())
                            .enumerate()
                            .find(|(_, (a, b))| a != b)
                            .map(|(n, (a, b))| {
                                format!(
                                    "scale={scale} jobs={j}: first divergence at line {}: \
                                     {a:?} vs {b:?}",
                                    n + 1
                                )
                            })
                            .unwrap_or_else(|| {
                                format!("scale={scale} jobs={j}: outputs differ in length")
                            }),
                    );
                }
                (wall, identical)
            };
            all_identical &= identical;
            let speedup = if wall > 0.0 { serial_wall / wall } else { 0.0 };
            point_lines.push(format!(
                "    {{\"scale\": {scale}, \"jobs\": {j}, \"wall_s\": {wall:.3}, \
                 \"serial_wall_s\": {serial_wall:.3}, \"speedup\": {speedup:.3}, \
                 \"identical\": {identical}}}"
            ));
            println!(
                "repro bench: scale={scale} jobs={j} wall={wall:.3}s \
                 speedup={speedup:.2}x identical={identical}"
            );
        }
    }

    let json = format!(
        "{{\n  \"schema\": \"shm-bench-trajectory/v1\",\n  \"host_parallelism\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        point_lines.join(",\n"),
    );
    std::fs::write(out_path, &json)
        .map_err(|e| ReproError::usage(format!("write {out_path}: {e}")))?;
    println!("throughput trajectory written to {out_path}");

    if all_identical {
        Ok(())
    } else {
        Err(ReproError::runtime(
            format!(
                "parallel output diverges from serial ({})",
                first_divergence.unwrap_or_else(|| "divergence detail unavailable".to_string())
            ),
            &Probe::disabled(),
        ))
    }
}

/// Captures one representative telemetry trace for `figure` — the first
/// suite benchmark under the SHM design — into `dir/<figure>.jsonl`.
fn dump_figure_telemetry(dir: &str, figure: &str, scale: f64) -> Result<(), ReproError> {
    std::fs::create_dir_all(dir).map_err(|e| ReproError::usage(format!("create {dir}: {e}")))?;
    let profile = scaled_suite(scale)
        .into_iter()
        .next()
        .ok_or_else(|| ReproError::usage("benchmark suite is empty"))?;
    let trace = profile.generate(shm_bench::trace_seed(profile.name));
    let path = std::path::Path::new(dir).join(format!("{figure}.jsonl"));
    // Stream the JSONL document to disk as the run produces it rather than
    // buffering the whole trace in memory.
    let probe = Probe::enabled_streaming(TelemetryConfig::default(), &path)
        .map_err(|e| ReproError::usage(format!("create {}: {e}", path.display())))?;
    Simulator::new(&GpuConfig::default(), DesignPoint::Shm)
        .with_probe(probe.clone())
        .run(&trace);
    if let Some(e) = probe.stream_error() {
        return Err(ReproError::runtime(
            format!("write {}: {e}", path.display()),
            &probe,
        ));
    }
    println!("telemetry for {figure} streamed to {}", path.display());
    Ok(())
}

/// Sensitivity analysis for the design choices DESIGN.md calls out:
/// metadata-cache capacity, chunk size and read-only region size.
fn sensitivity(scale: f64) -> String {
    use gpu_types::MdcConfig;
    let mut out = String::new();
    let profiles: Vec<_> = scaled_suite(scale)
        .into_iter()
        .filter(|p| ["fdtd2d", "kmeans", "bfs", "lbm"].contains(&p.name))
        .collect();

    let _ = writeln!(
        out,
        "\n== Sensitivity: metadata-cache capacity (SHM normalized IPC) =="
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for kb in [1u64, 2, 4, 8] {
        let _ = write!(out, "{:>10}", format!("{kb} KB"));
    }
    let _ = writeln!(out);
    for p in &profiles {
        let trace = p.generate(shm_bench::trace_seed(p.name));
        let _ = write!(out, "{:<12}", p.name);
        for kb in [1u64, 2, 4, 8] {
            let cfg = GpuConfig {
                mdc: MdcConfig {
                    cache_bytes: kb * 1024,
                    ..MdcConfig::default()
                },
                ..GpuConfig::default()
            };
            let base = Simulator::new(&cfg, DesignPoint::Unprotected).run(&trace);
            let s = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
            let _ = write!(out, "{:>10.4}", base.cycles as f64 / s.cycles as f64);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\n== Sensitivity: streaming chunk size (SHM normalized IPC) =="
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for kb in [2u64, 4, 8] {
        let _ = write!(out, "{:>10}", format!("{kb} KB"));
    }
    let _ = writeln!(out);
    let base_cfg = GpuConfig::default();
    for p in &profiles {
        let trace = p.generate(shm_bench::trace_seed(p.name));
        let base = Simulator::new(&base_cfg, DesignPoint::Unprotected).run(&trace);
        let _ = write!(out, "{:<12}", p.name);
        for kb in [2u64, 4, 8] {
            let shm_cfg = ShmConfig {
                chunk_bytes: kb * 1024,
                tracker_phase_accesses: (kb * 1024 / 128) as u32,
                ..ShmConfig::default()
            };
            let s = Simulator::new(&base_cfg, DesignPoint::Shm)
                .with_shm_config(shm_cfg)
                .run(&trace);
            let _ = write!(out, "{:>10.4}", base.cycles as f64 / s.cycles as f64);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\n== Sensitivity: read-only region size (SHM normalized IPC) =="
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for kb in [4u64, 16, 64] {
        let _ = write!(out, "{:>10}", format!("{kb} KB"));
    }
    let _ = writeln!(out);
    for p in &profiles {
        let trace = p.generate(shm_bench::trace_seed(p.name));
        let base = Simulator::new(&base_cfg, DesignPoint::Unprotected).run(&trace);
        let _ = write!(out, "{:<12}", p.name);
        for kb in [4u64, 16, 64] {
            let shm_cfg = ShmConfig {
                readonly_region_bytes: kb * 1024,
                ..ShmConfig::default()
            };
            let s = Simulator::new(&base_cfg, DesignPoint::Shm)
                .with_shm_config(shm_cfg)
                .run(&trace);
            let _ = write!(out, "{:>10.4}", base.cycles as f64 / s.cycles as f64);
        }
        let _ = writeln!(out);
    }
    out
}

/// Heterogeneous-pool placement sweep: the confidential-AI profiles under
/// every placement policy.  `SHM_POOL_*` / `SHM_LINK_*` knobs shape the
/// pool geometry; not part of `all` (the paper tables stay single-pool).
fn hetero(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let rows = shm_bench::pool::try_run_pool_sweep(&shm_pool::PlacementPolicy::ALL, scale, jobs)
        .map_err(|e| format!("hetero sweep failed: {e}"))?;
    Ok(shm_bench::pool::format_pool_table(&rows))
}

/// Calibration diagnostics: per-class overheads on pure access patterns.
fn micro_diag() -> String {
    let mut out = String::new();
    let cfg = GpuConfig::default();
    let stream = shm_workloads::micro::pure_stream_read(12 * 64 * 4096);
    let swrite = shm_workloads::micro::pure_stream_write(12 * 64 * 4096);
    let random = shm_workloads::micro::pure_random_read(8 << 20, 60_000, 9);
    {
        let (s, parts) = Simulator::new(&cfg, DesignPoint::Naive).run_inspect(&stream);
        let _ = writeln!(out, "naive stream-read: cycles={}", s.cycles);
        for (i, (r, w, free)) in parts.iter().enumerate() {
            let _ = writeln!(out, "  P{i:<3} read={r:<9} write={w:<9} bus_free={free}");
        }
    }
    for (label, trace) in [
        ("stream-read", &stream),
        ("stream-write", &swrite),
        ("random-read", &random),
    ] {
        let _ = writeln!(out, "\n-- {label} --");
        for d in [
            DesignPoint::Unprotected,
            DesignPoint::Naive,
            DesignPoint::CommonCtr,
            DesignPoint::Pssm,
            DesignPoint::ShmReadOnly,
            DesignPoint::Shm,
        ] {
            let s = Simulator::new(&cfg, d).run(trace);
            let _ = write!(
                out,
                "  {:<14} cycles={:<9} ovh={:<7.3} hits={:<6} miss={:<6} data={:<9}",
                d.name(),
                s.cycles,
                s.traffic.overhead_ratio(),
                s.l2_hits,
                s.l2_misses,
                s.traffic.data_bytes()
            );
            let n = (s.l2_hits + s.l2_misses).max(1);
            let _ = write!(
                out,
                " lat_avg={:.0} lat_max={}",
                s.lat_sum as f64 / n as f64,
                s.lat_max
            );
            for (l, v) in traffic_breakdown(&s) {
                let _ = write!(out, " {l}={v:.3}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Table I/II: security mechanisms per memory space and data class.
fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Table I: security mechanisms for GPU heterogeneous memory =="
    );
    use gpu_types::MemorySpace::*;
    for (space, loc) in [
        (Global, "off-chip"),
        (Local, "off-chip"),
        (Constant, "off-chip"),
        (Texture, "off-chip"),
        (Instruction, "off-chip"),
    ] {
        let _ = writeln!(
            out,
            "{:<14} {:<10} {}",
            space.to_string(),
            loc,
            required_mechanisms(space).notation()
        );
    }
    let _ = writeln!(
        out,
        "(register / shared memory / caches: on-chip, no mechanisms)"
    );

    let _ = writeln!(
        out,
        "\n== Table II: security mechanisms for application data =="
    );
    for (d, label) in [
        (DataProperty::ApplicationCode, "application code"),
        (DataProperty::Input, "input"),
        (DataProperty::Output, "output"),
        (DataProperty::InFlight, "in-flight data"),
    ] {
        let prop = if d.is_read_only() {
            "read-only"
        } else {
            "read/write"
        };
        let _ = writeln!(out, "{label:<18} {prop:<11} {}", d.required().notation());
    }
    out
}

/// Table IX: hardware storage overhead of the predictors and trackers.
fn table9() -> String {
    let mut out = String::new();
    let cfg = GpuConfig::default();
    let shm = ShmConfig::default();
    let _ = writeln!(out, "\n== Table IX: hardware overhead ==");
    let _ = writeln!(
        out,
        "read-only predictor : {} entries x 1 bit = {} B/partition",
        shm.readonly_predictor_entries,
        shm.readonly_predictor_entries / 8
    );
    let _ = writeln!(
        out,
        "streaming predictor : {} entries x 1 bit = {} B/partition",
        shm.streaming_predictor_entries,
        shm.streaming_predictor_entries / 8
    );
    let _ = writeln!(
        out,
        "access trackers     : {} x 71 bit = {} B/partition",
        shm.num_trackers,
        shm.num_trackers * 71 / 8
    );
    let _ = writeln!(
        out,
        "TOTAL ({} partitions): {} B ({:.2} KB)",
        cfg.num_partitions,
        shm.total_storage_bytes(cfg.num_partitions),
        shm.total_storage_bytes(cfg.num_partitions) as f64 / 1024.0
    );
    out
}

/// Tables III/IV: misprediction handling — demonstrated by measuring the
/// fix-up traffic of deliberately adversarial access patterns.
fn table3_4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Tables III/IV: misprediction handling (fix-up traffic measured) =="
    );
    let cfg = GpuConfig::default();

    // Stream-predicted chunk that is actually random (reads): the failed
    // second-chance check falls back to the per-block MAC and corrects the
    // predictor (Table III, read rows).
    let trace = shm_workloads::micro::pure_random_read(8 << 20, 40_000, 7);
    let stats = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let _ = writeln!(
        out,
        "random-read trace (predicted streaming at init): fixup bytes = {}  stream mispredictions = {}",
        stats
            .traffic
            .class_total(gpu_types::TrafficClass::MispredictFixup),
        stats.stream_mispredictions
    );

    // Stream-predicted chunks written randomly: the costliest case — block
    // MACs went stale under chunk-MAC mode, so detection re-fetches the
    // chunk's data blocks to reproduce them (Table IV, stream→random row).
    let trace = shm_workloads::micro::pure_random_write(16 << 20, 200_000, 7);
    let stats = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let _ = writeln!(
        out,
        "random-write trace (predicted streaming at init): fixup bytes = {}  stream mispredictions = {}",
        stats
            .traffic
            .class_total(gpu_types::TrafficClass::MispredictFixup),
        stats.stream_mispredictions
    );

    // Fully streaming read over read-only data: zero fix-up expected.
    let trace = shm_workloads::micro::pure_stream_read(12 * 8 * 4096);
    let stats = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let _ = writeln!(
        out,
        "read-only streaming trace (correct prediction): fixup bytes = {}  stream mispredictions = {}",
        stats
            .traffic
            .class_total(gpu_types::TrafficClass::MispredictFixup),
        stats.stream_mispredictions
    );
    out
}

/// Table VII: measured bandwidth utilisation and memory-space usage.
fn table7(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Table VII: benchmarks (measured on the unprotected baseline) =="
    );
    let _ = writeln!(
        out,
        "{:<16}{:>12}{:>12}{:>18}",
        "benchmark", "bw util", "l2 miss", "memory space"
    );
    let cfg = GpuConfig::default();
    let profiles = scaled_suite(scale);
    let lines = Executor::from_request(jobs)
        .try_map(
            &profiles,
            |_, p| format!("table7 {}", p.name),
            |_, p| {
                let trace = p.generate(shm_bench::trace_seed(p.name));
                let stats = Simulator::new(&cfg, DesignPoint::Unprotected).run(&trace);
                let util = stats.bandwidth_utilization(
                    cfg.partition_bytes_per_cycle() * cfg.num_partitions as f64,
                );
                let spaces = if p.uses_texture {
                    "constant/texture"
                } else {
                    "constant"
                };
                format!(
                    "{:<16}{:>11.1}%{:>11.1}%{:>18}\n",
                    p.name,
                    util * 100.0,
                    stats.l2_miss_rate() * 100.0,
                    spaces
                )
            },
        )
        .map_err(|e| format!("table7 sweep failed: {e}"))?;
    for line in lines {
        out.push_str(&line);
    }
    Ok(out)
}

/// Fig. 5: fraction of accesses touching streaming and read-only data.
fn fig5(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let map = GpuConfig::default().partition_map();
    let profiles = scaled_suite(scale);
    let rows: Vec<(String, Vec<f64>)> = Executor::from_request(jobs)
        .try_map(
            &profiles,
            |_, p| format!("fig5 {}", p.name),
            |_, p| {
                let trace = p.generate(shm_bench::trace_seed(p.name));
                let events: Vec<_> = trace.all_events().cloned().collect();
                let oracle = OracleProfile::from_trace(&events, map);
                (
                    p.name.to_string(),
                    vec![
                        oracle.streaming_fraction(&events, map),
                        oracle.read_only_fraction(&events, map),
                    ],
                )
            },
        )
        .map_err(|e| format!("fig5 sweep failed: {e}"))?;
    Ok(format_table(
        "Fig. 5: streaming / read-only access fractions",
        &["streaming", "read-only"],
        &rows,
    ))
}

/// Fig. 10: read-only prediction breakdown.
fn fig10(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let cfg = GpuConfig::default();
    let profiles = scaled_suite(scale);
    let rows: Vec<(String, Vec<f64>)> = Executor::from_request(jobs)
        .try_map(
            &profiles,
            |_, p| format!("fig10 {}", p.name),
            |_, p| {
                let trace = p.generate(shm_bench::trace_seed(p.name));
                let (_, ro, _) = Simulator::new(&cfg, DesignPoint::Shm).run_detailed(&trace);
                let t = ro.total().max(1) as f64;
                (
                    p.name.to_string(),
                    vec![
                        ro.correct as f64 / t,
                        ro.mp_init as f64 / t,
                        ro.mp_aliasing as f64 / t,
                    ],
                )
            },
        )
        .map_err(|e| format!("fig10 sweep failed: {e}"))?;
    Ok(format_table(
        "Fig. 10: read-only prediction breakdown",
        &["correct", "mp_init", "mp_aliasing"],
        &rows,
    ))
}

/// Fig. 11: streaming prediction breakdown.
fn fig11(scale: f64, jobs: Option<usize>) -> Result<String, String> {
    let cfg = GpuConfig::default();
    let profiles = scaled_suite(scale);
    let rows: Vec<(String, Vec<f64>)> = Executor::from_request(jobs)
        .try_map(
            &profiles,
            |_, p| format!("fig11 {}", p.name),
            |_, p| {
                let trace = p.generate(shm_bench::trace_seed(p.name));
                let (_, _, st) = Simulator::new(&cfg, DesignPoint::Shm).run_detailed(&trace);
                let t = st.total().max(1) as f64;
                (
                    p.name.to_string(),
                    vec![
                        st.correct as f64 / t,
                        st.mp_init as f64 / t,
                        st.mp_runtime_read_only as f64 / t,
                        st.mp_runtime_non_read_only as f64 / t,
                        st.mp_aliasing as f64 / t,
                    ],
                )
            },
        )
        .map_err(|e| format!("fig11 sweep failed: {e}"))?;
    Ok(format_table(
        "Fig. 11: streaming prediction breakdown",
        &["correct", "mp_init", "mp_rt_ro", "mp_rt_nro", "mp_alias"],
        &rows,
    ))
}

#[allow(clippy::too_many_arguments)]
fn norm_ipc_table(
    title: &str,
    figure: &str,
    designs: &[DesignPoint],
    scale: f64,
    jobs: Option<usize>,
    sctx: &SweepCtx,
) -> Result<String, FigError> {
    let header: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    let rows: Vec<(String, Vec<f64>)> = suite_rows(figure, designs, scale, jobs, sctx)?
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                designs.iter().map(|d| row.norm_ipc(*d)).collect(),
            )
        })
        .collect();
    Ok(format_table(title, &header, &rows))
}

/// Fig. 12: normalized IPC of the main designs.
fn fig12(scale: f64, jobs: Option<usize>, sctx: &SweepCtx) -> Result<String, FigError> {
    norm_ipc_table(
        "Fig. 12: normalized IPC",
        "fig12",
        &[
            DesignPoint::Naive,
            DesignPoint::CommonCtr,
            DesignPoint::Pssm,
            DesignPoint::Shm,
            DesignPoint::ShmUpperBound,
        ],
        scale,
        jobs,
        sctx,
    )
}

/// Fig. 13: optimisation breakdown.
fn fig13(scale: f64, jobs: Option<usize>, sctx: &SweepCtx) -> Result<String, FigError> {
    norm_ipc_table(
        "Fig. 13: performance impact of each optimisation",
        "fig13",
        &[
            DesignPoint::Pssm,
            DesignPoint::PssmCctr,
            DesignPoint::ShmReadOnly,
            DesignPoint::Shm,
            DesignPoint::ShmCctr,
        ],
        scale,
        jobs,
        sctx,
    )
}

/// Fig. 14: bandwidth overheads of security metadata.
fn fig14(scale: f64, jobs: Option<usize>, sctx: &SweepCtx) -> Result<String, FigError> {
    let designs = [
        DesignPoint::Naive,
        DesignPoint::CommonCtr,
        DesignPoint::Pssm,
        DesignPoint::ShmReadOnly,
        DesignPoint::Shm,
    ];
    let header: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    let mut breakdown_acc: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let suite_rows = suite_rows("fig14", &designs, scale, jobs, sctx)?;
    let rows: Vec<(String, Vec<f64>)> = suite_rows
        .iter()
        .map(|row| {
            for (di, d) in designs.iter().enumerate() {
                for (label, v) in traffic_breakdown(&row.stats[d.name()]) {
                    breakdown_acc
                        .entry(label)
                        .or_insert_with(|| vec![0.0; designs.len()])[di] += v;
                }
            }
            (
                row.name.clone(),
                designs.iter().map(|d| row.bandwidth_overhead(*d)).collect(),
            )
        })
        .collect();
    let mut out = format_table(
        "Fig. 14: bandwidth overhead (metadata bytes / data bytes)",
        &header,
        &rows,
    );
    let _ = writeln!(
        out,
        "\nmean per-class breakdown (normalized to data bytes):"
    );
    let n = rows.len() as f64;
    for (label, sums) in &breakdown_acc {
        let _ = write!(out, "  {label:<8}");
        for s in sums {
            let _ = write!(out, "{:>12.4}", s / n);
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// Fig. 15: normalized energy per instruction.
fn fig15(scale: f64, jobs: Option<usize>, sctx: &SweepCtx) -> Result<String, FigError> {
    let designs = [
        DesignPoint::Naive,
        DesignPoint::CommonCtr,
        DesignPoint::Pssm,
        DesignPoint::Shm,
    ];
    let model = EnergyModel::default();
    let header: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    let rows: Vec<(String, Vec<f64>)> = suite_rows("fig15", &designs, scale, jobs, sctx)?
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                designs
                    .iter()
                    .map(|d| row.normalized_energy(*d, &model))
                    .collect(),
            )
        })
        .collect();
    Ok(format_table(
        "Fig. 15: normalized energy per instruction",
        &header,
        &rows,
    ))
}

/// Fig. 16: SHM vs SHM with the L2 victim cache.
fn fig16(scale: f64, jobs: Option<usize>, sctx: &SweepCtx) -> Result<String, FigError> {
    let designs = [DesignPoint::Shm, DesignPoint::ShmVL2];
    let header: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    // One sweep feeds both the table and the mean-gain headline (the old
    // implementation re-ran the whole suite for the second number).
    let suite_rows = suite_rows("fig16", &designs, scale, jobs, sctx)?;
    let rows: Vec<(String, Vec<f64>)> = suite_rows
        .iter()
        .map(|row| {
            (
                row.name.clone(),
                designs.iter().map(|d| row.norm_ipc(*d)).collect(),
            )
        })
        .collect();
    let mut out = format_table(
        "Fig. 16: L2 as victim cache for security metadata",
        &header,
        &rows,
    );
    let gain: Vec<f64> = suite_rows
        .iter()
        .map(|row| row.norm_ipc(DesignPoint::ShmVL2) - row.norm_ipc(DesignPoint::Shm))
        .collect();
    let _ = writeln!(out, "mean vL2 gain: {:+.4} normalized IPC", mean(&gain));
    Ok(out)
}
