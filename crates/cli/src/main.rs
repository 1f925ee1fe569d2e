//! `shm` — command-line driver for the secure-GPU-memory simulator.
//!
//! ```text
//! shm list                                      benchmarks and designs
//! shm run -b fdtd2d -d SHM [--events N]         one (benchmark, design) run
//! shm run --trace file.trace -d PSSM            replay a stored trace
//! shm sweep -b kmeans [--events N] [--csv]      all designs on one benchmark
//! shm sweep -b kmeans --journal s.jsonl --resume   checkpointed sweep
//! shm trace gen -b lbm -o lbm.trace [--events N]
//! shm trace info lbm.trace
//! ```
//!
//! Each subcommand lives in its own module; this file installs the
//! signal handlers, dispatches and prints the help.  Exit codes (see
//! [`shm_bench::cli::Failure`]): 0 success, 1 runtime failure, 2 usage, 3
//! broken integrity claim, 130 interrupted (SIGINT/SIGTERM; journaled
//! sweeps stay resumable).

use std::process::ExitCode;

use shm_bench::cli::{install_signal_handlers, Args, Failure, SweepArgs};

mod args;
mod attack;
mod list;
mod run;
mod sweep;
mod trace;

fn main() -> ExitCode {
    install_signal_handlers();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report("run `shm help` for usage"),
    }
}

/// Options of the trace a command simulates or stores (`args::load_trace`).
const TRACE: &[&str] = &["b", "benchmark", "trace", "custom", "events", "seed"];
/// `--telemetry` and the outputs it enables for one run (`telemetry_probe`).
const TELEMETRY: &[&str] = &["telemetry", "epoch-cycles", "trace-out", "epoch-csv"];
/// The design and pools of `shm run`.
const RUN: &[&str] = &["d", "design", "pools", "jobs", "profile"];

fn dispatch(argv: &[String]) -> Result<(), Failure> {
    type Command = fn(&Args) -> Result<(), Failure>;
    let words: Vec<&str> = argv.iter().take(2).map(String::as_str).collect();
    // (subcommand, words it spans, whether it takes one file argument, the
    // options it reads)
    let (command, skip, takes_file, options): (Command, usize, bool, &[&[&str]]) = match words[..] {
        [] | ["help" | "--help" | "-h", ..] => {
            print_help();
            return Ok(());
        }
        ["list", ..] => (list::cmd_list, 1, false, &[]),
        ["run", ..] => (run::cmd_run, 1, false, &[TRACE, TELEMETRY, RUN]),
        ["attack", ..] => (
            attack::cmd_attack,
            1,
            false,
            &[TELEMETRY, &["campaign", "seed", "policy"]],
        ),
        ["sweep", ..] => (
            sweep::cmd_sweep,
            1,
            false,
            &[TRACE, SweepArgs::OPTIONS, &["pools", "csv"]],
        ),
        ["trace", "gen"] => (trace::cmd_gen, 2, false, &[TRACE, &["o", "out"]]),
        ["trace", "info"] => (trace::cmd_info, 2, true, &[]),
        ["trace", ..] => {
            return Err(Failure::usage(format!(
                "unknown trace subcommand {:?}",
                words.get(1)
            )))
        }
        [other, ..] => return Err(Failure::usage(format!("unknown command {other:?}"))),
    };
    let rest = &argv[skip..];
    let args = if takes_file {
        Args::parse_with_target(rest)?
    } else {
        Args::parse(rest)?
    };
    if let Some(key) = args.unknown_option(&options.concat()) {
        return Err(Failure::usage(format!("unknown option --{key}")));
    }
    command(&args)
}

fn print_help() {
    println!(
        "shm — secure GPU memory simulator (SHM, HPCA 2022 reproduction)\n\n\
         commands:\n\
         \x20 list                                 benchmarks and designs\n\
         \x20 run   -b <bench> -d <design> [--events N] [--seed S] [--jobs N]\n\
         \x20 run   --trace <file> -d <design>     replay a stored trace\n\
         \x20 run   --custom ro=0.9,stream=0.95,write=0.05 -d SHM\n\
         \x20 run   ... --telemetry [--epoch-cycles N] [--trace-out t.jsonl] [--epoch-csv e.csv]\n\
         \x20 run   ... --profile                  phase self-profiler (forces --jobs 1)\n\
         \x20 run   ... --pools gpu-only|static-split|hot-page-migrate   heterogeneous\n\
         \x20        CPU+GPU pools (default single-pool)\n\
         \x20 sweep -b <bench> [--events N] [--csv] [--jobs N]\n\
         \x20 sweep -b <bench> --pools <policy|all>   placement-policy sweep: design\n\
         \x20        rows per policy plus migration/spill/link counters\n\
         \x20 sweep ... --journal <file> [--resume]  checkpoint results; SIGINT/SIGTERM\n\
         \x20        stops gracefully (exit 130) and --resume skips completed jobs\n\
         \x20 attack --campaign smoke|full [--seed S] [--policy abort|retry|quarantine]\n\
         \x20        [--telemetry ...]            adversary campaign; exit 3 on any miss\n\
         \x20 trace gen  -b <bench> -o <file> [--events N] [--seed S]\n\
         \x20 trace info <file>\n"
    );
}
