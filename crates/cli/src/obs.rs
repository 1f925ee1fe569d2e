//! Observability subcommands and helpers: the `/metrics` endpoint guard
//! (`--metrics-addr`), `shm trace-report` and `shm env`.

use std::time::Duration;

use shm_metrics::MetricsServer;
use shm_telemetry::span::{SpanEvent, TraceReport};
use shm_telemetry::Probe;

use shm_bench::cli::{Args, Failure};

/// Live `/metrics` endpoint for the duration of one command.  Starting it
/// flips the process-global metrics registry on; without it every counter
/// in the hot paths stays a single relaxed load.
pub struct MetricsGuard {
    server: Option<MetricsServer>,
    hold_ms: u64,
}

impl MetricsGuard {
    /// Starts the exposition server when `--metrics-addr HOST:PORT` (port
    /// 0 = OS-assigned) asks for one.
    pub fn from_args(args: &Args) -> Result<Self, Failure> {
        let hold_ms = args.get_u64("metrics-hold-ms")?.unwrap_or(0);
        let Some(addr) = args.get("metrics-addr") else {
            return Ok(Self {
                server: None,
                hold_ms,
            });
        };
        shm_metrics::set_enabled(true);
        let server = MetricsServer::bind(addr).map_err(|e| {
            Failure::runtime(
                format!("bind metrics endpoint {addr}: {e}"),
                &Probe::disabled(),
            )
        })?;
        eprintln!("metrics: serving http://{}/metrics", server.local_addr());
        Ok(Self {
            server: Some(server),
            hold_ms,
        })
    }

    /// Keeps the endpoint up for `--metrics-hold-ms` (so a scraper can take
    /// a final post-sweep sample), then shuts it down.
    pub fn finish(self) {
        if let Some(server) = self.server {
            if self.hold_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.hold_ms));
            }
            server.shutdown();
        }
    }
}

/// `shm trace-report <file.jsonl> [--top N]`: reconstructs the span tree
/// of each sweep trace in a telemetry JSONL document and prints its
/// timeline — wall time, queue-wait vs run-time, critical path, and the
/// top-N slowest jobs.
pub fn cmd_trace_report(args: &Args) -> Result<(), Failure> {
    let path = args
        .target()
        .ok_or_else(|| Failure::usage("need a telemetry JSONL file"))?;
    let top = args.get_u64("top")?.unwrap_or(10).max(1) as usize;
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::runtime(format!("read {path}: {e}"), &Probe::disabled()))?;
    let spans: Vec<SpanEvent> = text.lines().filter_map(SpanEvent::parse_json).collect();
    if spans.is_empty() {
        return Err(Failure::runtime(
            format!(
                "{path} contains no span records; produce them with \
                 `shm sweep ... --telemetry --trace-out {path}`"
            ),
            &Probe::disabled(),
        ));
    }
    let mut broken = false;
    for report in TraceReport::from_spans(spans) {
        for problem in report.check_invariants() {
            broken = true;
            eprintln!("warning: trace {:#x}: {problem}", report.trace_id);
        }
        print!("{}", report.render(top));
    }
    if broken {
        return Err(Failure::runtime(
            "span tree violated trace invariants (see warnings above)",
            &Probe::disabled(),
        ));
    }
    Ok(())
}

/// `shm env`: every `SHM_*` environment knob the toolchain reads, with its
/// current value.  The same table lives in README.md; a test checks that
/// the two list the same knobs and that every knob the sources name has a
/// row.
pub fn cmd_env(_: &Args) -> Result<(), Failure> {
    println!("{:<26} {:<12} meaning", "variable", "value");
    for (name, default, meaning) in env_knob_table() {
        let value = std::env::var(name).unwrap_or_else(|_| format!("(default {default})"));
        println!("{name:<26} {value:<12} {meaning}");
    }
    println!(
        "\naes backend selected by this build/host: {}",
        shm_crypto::selected_backend().name()
    );
    println!(
        "note: `shm run --profile` always forces {}=1 semantics (phase timers \
         are process-global); any --jobs or SHM_JOBS setting is overridden",
        sim_exec::JOBS_ENV
    );
    Ok(())
}

/// The full knob table (name, default, meaning), header row included.
fn env_knob_table() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut knobs: Vec<(&'static str, &'static str, &'static str)> = vec![(
        sim_exec::JOBS_ENV,
        "auto",
        "worker-pool width for sweeps (1 = serial)",
    )];
    knobs.extend(shm_pool::ENV_KNOBS.iter().copied());
    knobs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"SHM_[A-Z_]+"` string literal in the `.rs` files under the
    /// `src` dir of each crate named in `crates` (of every crate when
    /// `crates` is empty), except prefixes (names ending in `_`).
    fn knob_literals(crates: &[&str]) -> std::collections::BTreeSet<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut dirs: Vec<std::path::PathBuf> = if crates.is_empty() {
            std::fs::read_dir(&root)
                .expect("crates dir readable")
                .map(|e| e.expect("dir entry").path().join("src"))
                .collect()
        } else {
            crates.iter().map(|c| root.join(c).join("src")).collect()
        };
        let mut found = std::collections::BTreeSet::new();
        while let Some(dir) = dirs.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let src = std::fs::read_to_string(&path).expect("source readable");
                    for (i, _) in src.match_indices("\"SHM_") {
                        let name: String = src[i + 1..]
                            .chars()
                            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                            .collect();
                        if src[i + 1 + name.len()..].starts_with('"') && !name.ends_with('_') {
                            found.insert(name);
                        }
                    }
                }
            }
        }
        found
    }

    /// Asserts that `found` holds each of `expected` (else the scanner is
    /// broken) and that every name in `found` has an `shm env` row.
    fn assert_knobs_in_table(found: &std::collections::BTreeSet<String>, expected: &[&str]) {
        for knob in expected {
            assert!(
                found.contains(*knob),
                "scanner missed {knob} — is it broken? found {found:?}"
            );
        }
        let table: Vec<&str> = env_knob_table().iter().map(|(n, _, _)| *n).collect();
        for knob in found {
            assert!(
                table.contains(&knob.as_str()),
                "knob {knob} is named in the sources but missing from the `shm env` table"
            );
        }
    }

    /// Every pool and link knob the shm-pool sources name has an `shm env`
    /// row.
    #[test]
    fn every_pool_knob_is_in_the_env_table() {
        let expected: Vec<&str> = shm_pool::ENV_KNOBS.iter().map(|(n, _, _)| *n).collect();
        assert_knobs_in_table(&knob_literals(&["pool"]), &expected);
    }

    /// Every knob literal in any crate's sources has an `shm env` row, and
    /// README's "Environment knobs" table lists exactly the `shm env` rows,
    /// in the same order.
    #[test]
    fn env_table_covers_every_knob_and_matches_the_readme() {
        assert_knobs_in_table(&knob_literals(&[]), &[sim_exec::JOBS_ENV]);
        let table: Vec<&str> = env_knob_table().iter().map(|(n, _, _)| *n).collect();

        let readme = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
        )
        .expect("README.md readable");
        let section = readme
            .split("## Environment knobs")
            .nth(1)
            .expect("README has an Environment knobs section");
        let listed: Vec<&str> = section
            .split("\n## ")
            .next()
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(
            listed, table,
            "README's Environment knobs table must list exactly the `shm env` knobs"
        );
    }

    #[test]
    fn metrics_guard_without_request_is_inert() {
        let args = Args::parse(&[]).expect("parse");
        let Ok(guard) = MetricsGuard::from_args(&args) else {
            panic!("no server requested must not fail");
        };
        assert!(guard.server.is_none());
        guard.finish();
    }
}
