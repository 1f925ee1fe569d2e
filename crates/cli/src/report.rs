//! Human-readable run reports for the CLI.

use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel};
use gpu_types::{SimStats, TrafficClass};

/// Prints the full report for one run.
pub fn print_run(
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
