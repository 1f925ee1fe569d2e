//! `shm list`: the benchmark and design names the other commands take.

use gpu_mem_sim::DesignPoint;
use shm_bench::cli::{Args, Failure};
use shm_workloads::BenchmarkProfile;

pub fn cmd_list(_: &Args) -> Result<(), Failure> {
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
    Ok(())
}
