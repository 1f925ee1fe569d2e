//! `shm trace gen` and `shm trace info`: store a generated trace, and
//! describe a stored one.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use gpu_mem_sim::{read_trace, write_trace};
use gpu_types::GpuConfig;
use shm_bench::cli::{Args, Failure};

use crate::args::load_trace;

pub fn cmd_gen(args: &Args) -> Result<(), Failure> {
    let trace = load_trace(args)?;
    let out = args
        .get("o")
        .or_else(|| args.get("out"))
        .ok_or_else(|| Failure::usage("need --out/-o <file>"))?;
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    write_trace(&trace, &mut w).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} ({} kernels, {} events)",
        out,
        trace.kernels.len(),
        trace.all_events().count()
    );
    Ok(())
}

pub fn cmd_info(args: &Args) -> Result<(), Failure> {
    let path = args
        .target()
        .ok_or_else(|| Failure::usage("need a trace file"))?;
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let trace = read_trace(BufReader::new(f)).map_err(|e| format!("parse {path}: {e}"))?;
    println!("trace {} ({})", trace.name, path);
    println!("  read-only init ranges: {}", trace.readonly_init.len());
    for (start, len) in &trace.readonly_init {
        println!("    {:#x} + {} bytes", start.raw(), len);
    }
    for k in &trace.kernels {
        let writes = k.events.iter().filter(|e| e.kind.is_write()).count();
        println!(
            "  kernel {:<20} {:>8} events ({} writes), {} host actions",
            k.name,
            k.events.len(),
            writes,
            k.pre_actions.len()
        );
    }
    let map = GpuConfig::default().partition_map();
    let events: Vec<_> = trace.all_events().cloned().collect();
    let oracle = shm::OracleProfile::from_trace(&events, map);
    println!(
        "  oracle: {:.1}% streaming, {:.1}% read-only",
        oracle.streaming_fraction(&events, map) * 100.0,
        oracle.read_only_fraction(&events, map) * 100.0
    );
    Ok(())
}
