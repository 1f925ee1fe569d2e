//! `shm-benchmark` — the repository benchmark.
//!
//! ```text
//! shm-benchmark --workload W --seed S --seconds T --trace 0|1
//! shm-benchmark run   [--workload W] [--seed S] [--seconds T]
//! shm-benchmark trace [--workload W] [--seed S]
//! shm-benchmark compare A.json B.json
//! ```
//!
//! The first form runs one workload and ends its output with a one-line
//! JSON result: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`.  `run` and `trace` do the
//! same for every workload (or one).  These forms build the repository's
//! binaries first and write `results.json` (and, when traced, one span
//! file per workload) under `<target dir>/benchmark/`.  `compare` gives a
//! verdict per (end-to-end metric, workload) between two results files.
//! Workloads, metrics, units and bounds are declared in `BENCHMARK.json`.

mod child;
mod compare;
mod ctx;
mod host_speed;
mod json;
mod layers;
mod measure;
mod parse;
mod report;
mod spans;
mod spec;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ctx::Ctx;
use report::{Report, RunEnv};
use spec::spec;
use stats::Summary;
use workload::Workload;

const USAGE: &str = "usage: shm-benchmark [run|trace] [--workload W] [--seed S] [--seconds T] \
                     [--trace 0|1]\n       shm-benchmark compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command line of the run forms.
struct Options {
    /// Set by `run`/`trace`; the bare form prints the one-line result.
    subcommand: bool,
    traced: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let (subcommand, traced, rest) = match args.first().map(String::as_str) {
        Some("run") => (true, Some(false), &args[1..]),
        Some("trace") => (true, Some(true), &args[1..]),
        _ => (false, None, args),
    };
    let mut opts = Options {
        subcommand,
        traced: traced.unwrap_or(false),
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: spec().run_seconds,
    };
    let mut workload = None;
    let mut trace_flag = None;
    let mut i = 0;
    while i < rest.len() {
        let value = rest
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value\n{USAGE}", rest[i]))?;
        let bad = || format!("bad value {value:?} for {}\n{USAGE}", rest[i]);
        match rest[i].as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace_flag = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 2;
    }
    if let Some(w) = workload {
        opts.workloads = vec![w];
    }
    match (traced, trace_flag) {
        (Some(_), Some(_)) => return Err(format!("run/trace take no --trace\n{USAGE}")),
        (None, Some(t)) => opts.traced = t,
        (None, None) => return Err(format!("--trace 0|1 is required\n{USAGE}")),
        (Some(_), None) => {}
    }
    if !subcommand && workload.is_none() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(opts)
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.to_string());
        };
        let read = |p: &String| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("read {p}: {e}"))
                .and_then(|text| json::Json::parse(&text).map_err(|e| format!("{p}: {e}")))
        };
        let (table, worse) = compare::compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(if worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let opts = parse_options(args)?;
    hermetic_env();

    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let target_dir = target_dir(repo)?;
    let ctx = Ctx::prepare(repo, &target_dir)?;
    let out_dir = target_dir.join("benchmark");
    let mut reports = Vec::new();
    for &w in &opts.workloads {
        let report = if opts.traced {
            traced_report(w, opts.seed, &ctx, &out_dir)?
        } else {
            measure::end_to_end(w, opts.seed, opts.seconds, &ctx)?
        };
        print!("{}", report.table());
        reports.push(report);
    }
    let results = out_dir.join("results.json");
    std::fs::write(
        &results,
        report::results_json(&run_env(repo), opts.seed, &reports),
    )
    .map_err(|e| format!("write {}: {e}", results.display()))?;
    println!("results written to {}", results.display());
    if !opts.subcommand {
        println!("{}", reports[0].result_line());
        return Ok(ExitCode::SUCCESS);
    }
    Ok(if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the traced pass of `w` and writes its spans next to the results.
fn traced_report(w: Workload, seed: u64, ctx: &Ctx, out_dir: &Path) -> Result<Report, String> {
    let run = layers::per_layer(w, seed, None, Some(ctx));
    let spans = out_dir.join(format!("spans-{}.jsonl", w.name()));
    std::fs::write(&spans, run.spans.to_jsonl(w.name()))
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    let values: BTreeMap<&str, Summary> = run
        .metrics
        .into_iter()
        .map(|(name, v)| (name, Summary::of(vec![v])))
        .collect();
    Report::new(w, "per_layer", &spec().per_layer, values, run.checks, None)
}

/// Removes every `SHM_*` knob from this process's environment before any
/// thread starts, so neither the children (which inherit it) nor the
/// in-process layer calls see a developer's settings.
fn hermetic_env() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SHM_") {
            std::env::remove_var(key);
        }
    }
}

/// `CARGO_TARGET_DIR` (relative to the working directory, as cargo reads
/// it), or the repository's `target`.
fn target_dir(repo: &Path) -> Result<PathBuf, String> {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) => std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(d),
        None => repo.join("target"),
    };
    std::fs::create_dir_all(dir.join("benchmark"))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_env(repo: &Path) -> RunEnv {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(repo)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    RunEnv {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev: first_line("git", &["rev-parse", "HEAD"]),
        rustc: first_line("rustc", &["-V"]),
        aes_backend: shm_crypto::selected_backend().name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &str) -> Result<Options, String> {
        let v: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_options(&v)
    }

    #[test]
    fn single_workload_form_needs_workload_and_trace() {
        let o = opts("--workload hetero-kv --seed 3 --seconds 10 --trace 1").expect("valid");
        assert!(!o.subcommand && o.traced);
        assert_eq!(
            (o.workloads, o.seed, o.seconds),
            (vec![Workload::HeteroKv], 3, 10.0)
        );
        assert!(opts("--workload hetero-kv --seed 3").is_err());
        assert!(opts("--seed 3 --trace 0").is_err());
        assert!(opts("--workload nonesuch --trace 0").is_err());
        assert!(opts("--workload random-rw --trace 2").is_err());
        assert!(opts("--workload random-rw --trace").is_err());
    }

    #[test]
    fn subcommands_cover_every_workload_by_default() {
        let o = opts("trace --seed 2").expect("valid");
        assert!(o.subcommand && o.traced);
        assert_eq!(o.workloads, Workload::ALL);
        assert!(!opts("run").expect("valid").traced);
        assert!(opts("run --trace 1").is_err());
    }
}
