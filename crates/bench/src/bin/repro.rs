//! `repro` — regenerates every table and figure of the SHM evaluation.
//!
//! Usage: `repro [fig5|fig10|fig11|fig12|fig13|fig14|fig15|fig16|table1|table3_4|table7|table9|micro|sensitivity|hetero|all] [--scale X] [--jobs N] [--journal DIR [--resume] [--crash-after-jobs N]]`
//!
//! The `hetero` target renders the heterogeneous-pool placement sweep; it
//! is deliberately *not* part of `all`, which stays byte-identical to a
//! pool-free build.
//!
//! With `--journal DIR`, the suite-based figures (fig12–fig16) checkpoint
//! every completed (benchmark, design) job to `DIR/<figure>.jsonl` as it
//! lands.  An interrupted run (SIGINT/SIGTERM, exit code 130) leaves those
//! journals valid; re-running with `--resume` skips the completed jobs and
//! produces byte-identical tables.  A second signal exits 130 at once.
//! `--crash-after-jobs N` deterministically stops the sweep after exactly
//! N fresh completions (CI crash-recovery smoke).
//!
//! Figures run their (benchmark × design) simulations on the `sim-exec`
//! worker pool; `--jobs N` bounds the pool (1 = serial) and the
//! `SHM_JOBS` environment variable is the session-wide override.  Results
//! are reassembled in submission order, so the printed tables are
//! byte-identical at any worker count.
//!
//! The figures of one invocation share one simulation per (benchmark,
//! design): Table VII and Figs. 10–16 read one [`Memo`], so `all` runs each
//! of the ten designs once per benchmark, and only Fig. 5 generates a trace
//! of its own, for its oracle.  Results reused from a journal do not enter
//! the memo (they carry no predictor breakdown); a later figure that needs
//! such a job simulates it.
//!
//! Absolute numbers differ from the paper (the substrate is a trace-driven
//! simulator, not GPGPU-Sim on the authors' machines); the *shapes* —
//! design ordering, approximate factors, which benchmarks benefit — are the
//! reproduction target (see EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use gpu_mem_sim::DesignPoint::{
    CommonCtr, Naive, Pssm, PssmCctr, Shm, ShmCctr, ShmReadOnly, ShmUpperBound, ShmVL2, Unprotected,
};
use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, MdcConfig, ShmConfig, TrafficClass};
use shm::{required_mechanisms, DataProperty, OracleProfile};
use shm_bench::cli::{install_signal_handlers, Args, Failure, SweepArgs};
use shm_bench::{
    format_table, mean, scaled_suite, trace_seed, traffic_breakdown, BenchRow, Executor, Journal,
    Memo, SimJob, Sweep,
};
use shm_telemetry::Probe;
use shm_workloads::micro::{
    pure_random_read, pure_random_write, pure_stream_read, pure_stream_write,
};
use shm_workloads::BenchmarkProfile;

/// Printed after a usage error.
const USAGE: &str = "usage: repro [TARGET] [--scale X] [--jobs N] \
                     [--journal DIR [--resume] [--crash-after-jobs N]]";

/// The options `repro` reads besides [`SweepArgs::OPTIONS`].
const OPTIONS: &[&str] = &["scale"];

/// The targets `all` renders, in order.
const ALL: &[&str] = &[
    "table1", "table9", "table3_4", "fig5", "table7", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16",
];

fn main() -> ExitCode {
    install_signal_handlers();
    let argv: Vec<String> = env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report(USAGE),
    }
}

fn run(argv: &[String]) -> Result<(), Failure> {
    let args = Args::parse_with_target(argv)?;
    if let Some(key) = args.unknown_option(&[OPTIONS, SweepArgs::OPTIONS].concat()) {
        return Err(Failure::usage(format!("unknown option --{key}")));
    }
    let what = args.target().unwrap_or("all");
    let scale = args.get_f64("scale")?.unwrap_or(0.5);
    let opts = SweepArgs::from_args(&args)?;
    print!("{}", render(what, scale, &opts, &Memo::default())?);
    Ok(())
}

/// Renders one named target (or `all`); the figures take their
/// simulations from `memo`.
fn render(what: &str, scale: f64, opts: &SweepArgs, memo: &Memo) -> Result<String, Failure> {
    let jobs = opts.jobs;
    Ok(match what {
        "all" => return ALL.iter().map(|t| render(t, scale, opts, memo)).collect(),
        "table1" => table1(),
        "table3_4" => table3_4(),
        "table7" => table7(scale, jobs, memo)?,
        "table9" => table9(),
        "fig5" => fig5(scale, jobs)?,
        "fig10" => fig10(scale, jobs, memo)?,
        "fig11" => fig11(scale, jobs, memo)?,
        "fig12" => fig12(scale, opts, memo)?,
        "fig13" => fig13(scale, opts, memo)?,
        "fig14" => fig14(scale, opts, memo)?,
        "fig15" => fig15(scale, opts, memo)?,
        "fig16" => fig16(scale, opts, memo)?,
        "micro" => micro_diag(),
        "sensitivity" => sensitivity(scale),
        "hetero" => hetero(scale, jobs)?,
        _ => return Err(Failure::usage(format!("unknown target: {what}"))),
    })
}

/// Sensitivity analysis for the design choices DESIGN.md calls out:
/// metadata-cache capacity, chunk size and read-only region size.
fn sensitivity(scale: f64) -> String {
    let mut out = String::new();
    let profiles: Vec<_> = scaled_suite(scale)
        .into_iter()
        .filter(|p| ["fdtd2d", "kmeans", "bfs", "lbm"].contains(&p.name))
        .collect();
    let default = GpuConfig::default();
    // (parameter, sizes in KB, the configuration one size gives)
    type Point = fn(u64) -> (GpuConfig, ShmConfig);
    let sections: [(&str, &[u64], Point); 3] = [
        ("metadata-cache capacity", &[1, 2, 4, 8], |kb| {
            let mdc = MdcConfig {
                cache_bytes: kb * 1024,
                ..MdcConfig::default()
            };
            (
                GpuConfig {
                    mdc,
                    ..GpuConfig::default()
                },
                ShmConfig::default(),
            )
        }),
        ("streaming chunk size", &[2, 4, 8], |kb| {
            let shm = ShmConfig {
                chunk_bytes: kb * 1024,
                tracker_phase_accesses: (kb * 1024 / 128) as u32,
                ..ShmConfig::default()
            };
            (GpuConfig::default(), shm)
        }),
        ("read-only region size", &[4, 16, 64], |kb| {
            let shm = ShmConfig {
                readonly_region_bytes: kb * 1024,
                ..ShmConfig::default()
            };
            (GpuConfig::default(), shm)
        }),
    ];
    for (parameter, sizes, point) in sections {
        let _ = writeln!(out, "\n== Sensitivity: {parameter} (SHM normalized IPC) ==");
        let _ = write!(out, "{:<12}", "benchmark");
        for kb in sizes {
            let _ = write!(out, "{:>10}", format!("{kb} KB"));
        }
        let _ = writeln!(out);
        for p in &profiles {
            let trace = p.generate(trace_seed(p.name));
            let default_base = Simulator::new(&default, Unprotected).run(&trace);
            let _ = write!(out, "{:<12}", p.name);
            for &kb in sizes {
                let (cfg, shm) = point(kb);
                let base = if cfg == default {
                    default_base.cycles
                } else {
                    Simulator::new(&cfg, Unprotected).run(&trace).cycles
                };
                let s = Simulator::new(&cfg, Shm).with_shm_config(shm).run(&trace);
                let _ = write!(out, "{:>10.4}", base as f64 / s.cycles as f64);
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Heterogeneous-pool placement sweep: the confidential-AI profiles under
/// every placement policy.  `SHM_POOL_*` / `SHM_LINK_*` knobs shape the
/// pool geometry; not part of `all` (the paper tables stay single-pool).
fn hetero(scale: f64, jobs: Option<usize>) -> Result<String, Failure> {
    let rows = shm_bench::pool::try_run_pool_sweep(&shm_pool::PlacementPolicy::ALL, scale, jobs)
        .map_err(|e| Failure::runtime(format!("hetero sweep failed: {e}"), &Probe::disabled()))?;
    Ok(shm_bench::pool::format_pool_table(&rows))
}

/// Calibration diagnostics: per-class overheads on pure access patterns.
fn micro_diag() -> String {
    let mut out = String::new();
    let cfg = GpuConfig::default();
    let stream = pure_stream_read(12 * 64 * 4096);
    let swrite = pure_stream_write(12 * 64 * 4096);
    let random = pure_random_read(8 << 20, 60_000, 9);
    {
        let (s, parts) = Simulator::new(&cfg, Naive).run_inspect(&stream);
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
        for d in [Unprotected, Naive, CommonCtr, Pssm, ShmReadOnly, Shm] {
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
    // (what the trace is, how to build it) — built one at a time.
    type Case = (&'static str, fn() -> ContextTrace);
    let cases: [Case; 3] = [
        // Stream-predicted chunk that is actually random (reads): the failed
        // second-chance check falls back to the per-block MAC and corrects
        // the predictor (Table III, read rows).
        ("random-read trace (predicted streaming at init)", || {
            pure_random_read(8 << 20, 40_000, 7)
        }),
        // Stream-predicted chunks written randomly: the costliest case —
        // block MACs went stale under chunk-MAC mode, so detection
        // re-fetches the chunk's data blocks to reproduce them (Table IV,
        // stream→random row).
        ("random-write trace (predicted streaming at init)", || {
            pure_random_write(16 << 20, 200_000, 7)
        }),
        // Fully streaming read over read-only data: zero fix-up expected.
        ("read-only streaming trace (correct prediction)", || {
            pure_stream_read(12 * 8 * 4096)
        }),
    ];
    for (label, trace) in cases {
        let stats = Simulator::new(&cfg, Shm).run(&trace());
        let _ = writeln!(
            out,
            "{label}: fixup bytes = {}  stream mispredictions = {}",
            stats.traffic.class_total(TrafficClass::MispredictFixup),
            stats.stream_mispredictions
        );
    }
    out
}

/// One result per suite benchmark, in suite order: `row(profile)` runs on
/// the `sim-exec` pool.
fn per_benchmark<T: Send>(
    figure: &str,
    scale: f64,
    jobs: Option<usize>,
    row: impl Fn(&BenchmarkProfile) -> T + Sync,
) -> Result<Vec<T>, Failure> {
    Executor::from_request(jobs)
        .try_map(
            &scaled_suite(scale),
            |_, p| format!("{figure} {}", p.name),
            |_, p| row(p),
        )
        .map_err(|e| Failure::runtime(format!("{figure} sweep failed: {e}"), &Probe::disabled()))
}

/// A figure with one row of `values(profile)` per suite benchmark.
fn per_benchmark_table(
    figure: &str,
    title: &str,
    header: &[&str],
    scale: f64,
    jobs: Option<usize>,
    values: impl Fn(&BenchmarkProfile) -> Vec<f64> + Sync,
) -> Result<String, Failure> {
    let rows = per_benchmark(figure, scale, jobs, |p| (p.name.to_string(), values(p)))?;
    Ok(format_table(title, header, &rows))
}

/// Table VII: measured bandwidth utilisation and memory-space usage.
fn table7(scale: f64, jobs: Option<usize>, memo: &Memo) -> Result<String, Failure> {
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
    let lines = per_benchmark("table7", scale, jobs, |p| {
        let stats = memo.stats(&SimJob::suite(p, Unprotected));
        let util = stats
            .bandwidth_utilization(cfg.partition_bytes_per_cycle() * cfg.num_partitions as f64);
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
    })?;
    out.extend(lines);
    Ok(out)
}

/// Fig. 5: fraction of accesses touching streaming and read-only data.
fn fig5(scale: f64, jobs: Option<usize>) -> Result<String, Failure> {
    let map = GpuConfig::default().partition_map();
    per_benchmark_table(
        "fig5",
        "Fig. 5: streaming / read-only access fractions",
        &["streaming", "read-only"],
        scale,
        jobs,
        |p| {
            let trace = p.generate(trace_seed(p.name));
            let events: Vec<_> = trace.all_events().cloned().collect();
            let oracle = OracleProfile::from_trace(&events, map);
            vec![
                oracle.streaming_fraction(&events, map),
                oracle.read_only_fraction(&events, map),
            ]
        },
    )
}

/// Fig. 10: read-only prediction breakdown.
fn fig10(scale: f64, jobs: Option<usize>, memo: &Memo) -> Result<String, Failure> {
    per_benchmark_table(
        "fig10",
        "Fig. 10: read-only prediction breakdown",
        &["correct", "mp_init", "mp_aliasing"],
        scale,
        jobs,
        |p| {
            let (_, ro, _) = memo.detailed(&SimJob::suite(p, Shm));
            let t = ro.total().max(1) as f64;
            vec![
                ro.correct as f64 / t,
                ro.mp_init as f64 / t,
                ro.mp_aliasing as f64 / t,
            ]
        },
    )
}

/// Fig. 11: streaming prediction breakdown.
fn fig11(scale: f64, jobs: Option<usize>, memo: &Memo) -> Result<String, Failure> {
    per_benchmark_table(
        "fig11",
        "Fig. 11: streaming prediction breakdown",
        &["correct", "mp_init", "mp_rt_ro", "mp_rt_nro", "mp_alias"],
        scale,
        jobs,
        |p| {
            let (_, _, st) = memo.detailed(&SimJob::suite(p, Shm));
            let t = st.total().max(1) as f64;
            vec![
                st.correct as f64 / t,
                st.mp_init as f64 / t,
                st.mp_runtime_read_only as f64 / t,
                st.mp_runtime_non_read_only as f64 / t,
                st.mp_aliasing as f64 / t,
            ]
        },
    )
}

/// One suite figure (Figs. 12–16): the figure's sweep through the shared
/// reporting run — journaled to `DIR/<figure>.jsonl` under `--journal
/// DIR`, simulated through `memo` — rendered as `metric(row,
/// design)` per benchmark and design.  Returns the table and the rows it
/// came from.
fn suite_table(
    figure: &str,
    title: &str,
    designs: &[DesignPoint],
    metric: impl Fn(&BenchRow, DesignPoint) -> f64,
    scale: f64,
    opts: &SweepArgs,
    memo: &Memo,
) -> Result<(String, Vec<BenchRow>), Failure> {
    let mut sweep = Sweep::suite(designs, scale);
    let stats = opts.run(
        &mut sweep,
        figure,
        |dir, jobs| Journal::figure(dir, figure, jobs, None),
        &Probe::disabled(),
        |_, job| memo.stats(job),
    )?;
    let rows = sweep.rows(stats);
    let header: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    let table: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|row| {
            let values = designs.iter().map(|&d| metric(row, d)).collect();
            (row.name.clone(), values)
        })
        .collect();
    Ok((format_table(title, &header, &table), rows))
}

/// Fig. 12: normalized IPC of the main designs.
fn fig12(scale: f64, opts: &SweepArgs, memo: &Memo) -> Result<String, Failure> {
    let designs = [Naive, CommonCtr, Pssm, Shm, ShmUpperBound];
    let title = "Fig. 12: normalized IPC";
    let metric = BenchRow::norm_ipc;
    Ok(suite_table("fig12", title, &designs, metric, scale, opts, memo)?.0)
}

/// Fig. 13: optimisation breakdown.
fn fig13(scale: f64, opts: &SweepArgs, memo: &Memo) -> Result<String, Failure> {
    let designs = [Pssm, PssmCctr, ShmReadOnly, Shm, ShmCctr];
    let title = "Fig. 13: performance impact of each optimisation";
    let metric = BenchRow::norm_ipc;
    Ok(suite_table("fig13", title, &designs, metric, scale, opts, memo)?.0)
}

/// Fig. 14: bandwidth overheads of security metadata, then the mean
/// per-class breakdown.
fn fig14(scale: f64, opts: &SweepArgs, memo: &Memo) -> Result<String, Failure> {
    let designs = [Naive, CommonCtr, Pssm, ShmReadOnly, Shm];
    let title = "Fig. 14: bandwidth overhead (metadata bytes / data bytes)";
    let metric = BenchRow::bandwidth_overhead;
    let (mut out, rows) = suite_table("fig14", title, &designs, metric, scale, opts, memo)?;
    let mut breakdown: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for row in &rows {
        for (di, d) in designs.iter().enumerate() {
            for (label, v) in traffic_breakdown(&row.stats[d.name()]) {
                breakdown
                    .entry(label)
                    .or_insert_with(|| vec![0.0; designs.len()])[di] += v;
            }
        }
    }
    let _ = writeln!(
        out,
        "\nmean per-class breakdown (normalized to data bytes):"
    );
    let n = rows.len() as f64;
    for (label, sums) in &breakdown {
        let _ = write!(out, "  {label:<8}");
        for s in sums {
            let _ = write!(out, "{:>12.4}", s / n);
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// Fig. 15: normalized energy per instruction.
fn fig15(scale: f64, opts: &SweepArgs, memo: &Memo) -> Result<String, Failure> {
    let designs = [Naive, CommonCtr, Pssm, Shm];
    let title = "Fig. 15: normalized energy per instruction";
    let model = EnergyModel::default();
    let metric = |row: &BenchRow, d| row.normalized_energy(d, &model);
    Ok(suite_table("fig15", title, &designs, metric, scale, opts, memo)?.0)
}

/// Fig. 16: SHM vs SHM with the L2 victim cache, then the mean gain.
fn fig16(scale: f64, opts: &SweepArgs, memo: &Memo) -> Result<String, Failure> {
    let designs = [Shm, ShmVL2];
    let title = "Fig. 16: L2 as victim cache for security metadata";
    let metric = BenchRow::norm_ipc;
    let (mut out, rows) = suite_table("fig16", title, &designs, metric, scale, opts, memo)?;
    let gain: Vec<f64> = rows
        .iter()
        .map(|row| row.norm_ipc(ShmVL2) - row.norm_ipc(Shm))
        .collect();
    let _ = writeln!(out, "mean vL2 gain: {:+.4} normalized IPC", mean(&gain));
    Ok(out)
}
