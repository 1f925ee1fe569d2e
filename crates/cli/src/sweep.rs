//! `shm sweep`: every design on one trace — journaled, or once per
//! placement policy with `--pools`.

use std::fmt::Write as _;

use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm_bench::cli::{Args, Failure, SweepArgs};
use shm_bench::{config_hash, trace_digest, Journal, Sweep};
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_workloads::BenchmarkProfile;

use crate::args;

pub fn cmd_sweep(args: &Args) -> Result<(), Failure> {
    let opts = SweepArgs::from_args(args)?;
    // Without `--pools` the sweep is one section with no placement policy.
    let policies: Vec<Option<PlacementPolicy>> = match args::pools(args)? {
        Some(_) if opts.journal.is_some() => {
            return Err(Failure::usage(
                "--pools does not compose with --journal yet",
            ));
        }
        Some(policies) => policies.into_iter().map(Some).collect(),
        None => vec![None],
    };
    let trace = args::load_trace(args)?;
    // The jobs name the trace by benchmark, event count and seed; each job
    // simulates `trace` itself.
    let events = match args.get_u64("events")? {
        Some(n) => n,
        None => BenchmarkProfile::by_name(&trace.name).map_or(0, |p| p.events_per_kernel),
    };
    let seed = args::seed(args)?;
    let csv = args.flag("csv");
    let cfg = GpuConfig::default();
    let mut out = String::new();
    for policy in policies {
        let mut sweep = Sweep::all_designs(&trace.name, events, seed);
        let name = match policy {
            Some(p) => format!("{} [{}]", trace.name, p.label()),
            None => trace.name.to_string(),
        };
        let stats = opts.run(
            &mut sweep,
            &name,
            |path, _| journal(path, &trace),
            |i, _| {
                let sim = Simulator::new(&cfg, DesignPoint::ALL[i]);
                match policy {
                    Some(p) => sim.with_pools(PoolsConfig::new(p)),
                    None => sim,
                }
                .run(&trace)
            },
        )?;
        match policy {
            Some(p) => format_pool_section(&mut out, p, &stats, csv),
            None => out.push_str(&format_sweep_table(&stats, csv)),
        }
    }
    print!("{out}");
    Ok(())
}

/// The journal of `shm sweep --journal path`, bound to this exact sweep:
/// same trace content (a digest of its encoded bytes, so another `--seed`,
/// `--custom` spec or `--trace` file differs) and same design list, or the
/// journal is rejected.
fn journal(path: &std::path::Path, trace: &ContextTrace) -> Journal {
    let mut parts = vec![format!("{:016x}", trace_digest(trace))];
    parts.extend(DesignPoint::ALL.iter().map(|d| d.name().to_string()));
    let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    Journal {
        path: path.into(),
        config_hash: config_hash(&part_refs),
        crash_after_jobs: None,
    }
}

/// One policy's section of a `--pools` sweep: its design table, then its
/// migration/spill/link counter line.
fn format_pool_section(out: &mut String, policy: PlacementPolicy, stats: &[SimStats], csv: bool) {
    let _ = writeln!(out, "== pools: {} ==", policy.label());
    out.push_str(&format_sweep_table(stats, csv));
    // Pool counters are policy-shaped but design-independent in intent;
    // report the SHM design's row (the paper's scheme).
    let shm = stats
        .iter()
        .zip(DesignPoint::ALL)
        .find(|(_, d)| *d == DesignPoint::Shm)
        .map_or(&stats[0], |(s, _)| s);
    let _ = writeln!(out, "pool counters (SHM row): {}\n", pool_counters(shm));
}

/// The pool counters of one run, as `shm run` and `shm sweep` print them.
pub fn pool_counters(s: &SimStats) -> String {
    format!(
        "migrations {}  spills {}  cpu accesses {}  capacity events {}  \
         link to-gpu {} B  to-cpu {} B",
        s.pool_migrations,
        s.pool_spills,
        s.pool_cpu_accesses,
        s.pool_capacity_events,
        s.link_bytes_to_gpu,
        s.link_bytes_to_cpu,
    )
}

/// Renders the design table for one sweep.  A plain sweep and each policy
/// of a `--pools` sweep go through this one formatter.
fn format_sweep_table(stats: &[SimStats], csv: bool) -> String {
    let mut out = String::new();
    let energy = EnergyModel::default();
    // ALL[0] is the unprotected baseline every row normalizes against.
    let base = &stats[0];
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
    for (d, s) in DesignPoint::ALL.iter().zip(stats) {
        let (name, cycles) = (d.name(), s.cycles);
        let norm = base.cycles as f64 / cycles as f64;
        let meta = s.traffic.metadata_bytes();
        let overhead = s.traffic.overhead_ratio();
        let epi = energy.normalized_epi(s, base);
        let _ = if csv {
            writeln!(
                out,
                "{name},{norm:.4},{cycles},{meta},{overhead:.4},{epi:.4}"
            )
        } else {
            let percent = overhead * 100.0;
            writeln!(
                out,
                "{name:<16} {norm:>9.4} {cycles:>11} {meta:>13} {percent:>8.2}% {epi:>8.3}"
            )
        };
    }
    out
}
