//! `shm run`: one (trace, design) simulation against the unprotected
//! baseline, with its human-readable report.

use std::time::Instant;

use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats, TrafficClass};
use shm_bench::cli::{finish_telemetry, telemetry_probe, Args, Failure};
use shm_pool::PoolsConfig;
use sim_exec::Executor;

use crate::args;
use crate::sweep::pool_counters;

pub fn cmd_run(args: &Args) -> Result<(), Failure> {
    let jobs = args.jobs()?;
    let profiling = args.flag("profile");
    if profiling {
        // Phase timers are process-global, so profiled runs are serial —
        // concurrent jobs would double-charge wall time to the phases.
        // Always say so: the machine's default width is overridden too.
        eprintln!("note: --profile forces --jobs 1 (phase timers are process-global)");
        shm_metrics::phase::enable_profiling();
        shm_metrics::phase::reset_phases();
    }
    let profile_started = Instant::now();
    let trace = args::load_trace(args)?;
    let design = args::design(args)?;
    let probe = telemetry_probe(args)?;
    let jobs = if profiling { Some(1) } else { jobs };
    let pools = match args::pools(args)?.as_deref() {
        None => None,
        Some(&[policy]) => Some(PoolsConfig::new(policy)),
        Some(_) => return Err(Failure::usage("`shm run` takes one --pools policy")),
    };
    let cfg = GpuConfig::default();
    // The baseline and the protected design are independent runs — two jobs
    // on the shared pool — unless the design is the baseline, whose one run
    // is its own reference.  Only the design run, the last, carries the
    // probe.
    let designs: &[DesignPoint] = if design == DesignPoint::Unprotected {
        &[design]
    } else {
        &[DesignPoint::Unprotected, design]
    };
    let results = Executor::from_request(jobs)
        .try_map(
            designs,
            |_, d| format!("{} under {}", trace.name, d.name()),
            |i, &d| {
                let mut sim = Simulator::new(&cfg, d);
                // Both runs see the same pool geometry, so the normalized
                // IPC compares designs, not memory systems.
                if let Some(p) = pools {
                    sim = sim.with_pools(p);
                }
                if i + 1 == designs.len() {
                    sim = sim.with_probe(probe.clone());
                }
                sim.run(&trace)
            },
        )
        .map_err(|e| Failure::runtime(format!("simulation failed: {e}"), &probe))?;
    let profiled_wall_ns = profile_started.elapsed().as_nanos() as u64;
    let (Some(base), Some(stats)) = (results.first(), results.last()) else {
        return Err(Failure::runtime(
            "executor returned fewer results than jobs",
            &probe,
        ));
    };
    print_run(&trace, design, stats, base, &EnergyModel::default());
    if let Some(p) = pools {
        println!("pools ({}): {}", p.policy.label(), pool_counters(stats));
    }
    finish_telemetry(args, &probe)?;
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

/// Prints the full report for one run.
fn print_run(
    trace: &ContextTrace,
    design: DesignPoint,
    stats: &SimStats,
    baseline: &SimStats,
    energy: &EnergyModel,
) {
    println!(
        "{} under {} ({} kernels, {} accesses)",
        trace.name,
        design.name(),
        trace.kernels.len(),
        stats.accesses
    );
    println!(
        "  cycles           {:>12}   (baseline {}, normalized IPC {:.4})",
        stats.cycles,
        baseline.cycles,
        baseline.cycles as f64 / stats.cycles as f64
    );
    println!(
        "  instructions     {:>12}   (IPC {:.3})",
        stats.instructions,
        stats.ipc()
    );
    println!(
        "  L2               {:>12} hits / {} misses ({:.1}% miss rate), {} write-backs",
        stats.l2_hits,
        stats.l2_misses,
        stats.l2_miss_rate() * 100.0,
        stats.l2_writebacks
    );
    println!("  DRAM traffic (bytes, read+write):");
    let data = stats.traffic.data_bytes().max(1) as f64;
    for class in TrafficClass::ALL {
        let total = stats.traffic.class_total(class);
        if total == 0 {
            continue;
        }
        println!(
            "    {:<8} {:>12}   ({:>6.2}% of data)",
            class.label(),
            total,
            total as f64 / data * 100.0
        );
    }
    println!(
        "  metadata overhead {:>10.2}%   energy/instr {:.3}x baseline",
        stats.traffic.overhead_ratio() * 100.0,
        energy.normalized_epi(stats, baseline)
    );
    if stats.readonly_fast_path > 0 || stats.chunk_mac_accesses > 0 {
        println!(
            "  SHM fast paths: {} shared-counter reads, {} chunk-MAC accesses, {} stream mispredictions",
            stats.readonly_fast_path, stats.chunk_mac_accesses, stats.stream_mispredictions
        );
    }
    if stats.victim_hits > 0 {
        println!("  L2 victim cache: {} metadata hits", stats.victim_hits);
    }
}
