//! Observability subcommands and helpers: the `/metrics` endpoint guard
//! (`--metrics-addr`), `shm trace-report`, `shm top`, and `shm env`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use shm_metrics::{fetch_metrics, parse_exposition, MetricsServer, Sample};
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
/// of each distributed trace in a telemetry JSONL document and prints its
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

/// One worker's live gauges, keyed off the coordinator's per-worker series.
#[derive(Default)]
struct WorkerRow {
    in_flight: f64,
    queued: f64,
    completed: f64,
    heartbeat_age_ms: f64,
}

fn scalar(samples: &[Sample], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

fn worker_rows(samples: &[Sample]) -> BTreeMap<String, WorkerRow> {
    let mut rows: BTreeMap<String, WorkerRow> = BTreeMap::new();
    for s in samples {
        let Some(worker) = s
            .labels
            .iter()
            .find(|(k, _)| k == "worker")
            .map(|(_, v)| v.clone())
        else {
            continue;
        };
        let row = rows.entry(worker).or_default();
        match s.name.as_str() {
            "shm_worker_in_flight" => row.in_flight = s.value,
            "shm_worker_queued" => row.queued = s.value,
            "shm_worker_completed" => row.completed = s.value,
            "shm_worker_heartbeat_age_ms" => row.heartbeat_age_ms = s.value,
            _ => {}
        }
    }
    rows
}

fn render_top(samples: &[Sample], throughput: Option<f64>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let completed = scalar(samples, "shm_jobs_completed_total").unwrap_or(0.0);
    let total = scalar(samples, "shm_dist_jobs_total").unwrap_or(0.0);
    let reassigned = scalar(samples, "shm_dist_reassignments_total").unwrap_or(0.0);
    let retries = scalar(samples, "shm_dist_retries_total").unwrap_or(0.0);
    let tx = scalar(samples, "shm_frame_tx_bytes_total").unwrap_or(0.0);
    let rx = scalar(samples, "shm_frame_rx_bytes_total").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "sweep: {completed:.0}/{total:.0} jobs done  reassigned {reassigned:.0}  retries {retries:.0}"
    );
    let _ = writeln!(out, "wire:  {tx:.0} B out  {rx:.0} B in");
    match throughput {
        Some(jps) => {
            let _ = writeln!(out, "rate:  {jps:.2} jobs/s");
        }
        None => {
            let _ = writeln!(out, "rate:  (sampling)");
        }
    }
    let rows = worker_rows(samples);
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>7} {:>10} {:>9}",
            "worker", "in-flight", "queued", "completed", "hb-age ms"
        );
        for (id, r) in &rows {
            let _ = writeln!(
                out,
                "{:<16} {:>9.0} {:>7.0} {:>10.0} {:>9.0}",
                id, r.in_flight, r.queued, r.completed, r.heartbeat_age_ms
            );
        }
    }
    out
}

/// `shm top --connect HOST:PORT`: a plain-text polling monitor over the
/// coordinator's `/metrics` endpoint — job progress, wire traffic, job
/// throughput and per-worker queue depth, redrawn every `--interval-ms`
/// until `--iterations`, `--once` or SIGINT/SIGTERM stops it.
pub fn cmd_top(args: &Args) -> Result<(), Failure> {
    let addr = args
        .get("connect")
        .ok_or_else(|| Failure::usage("need --connect HOST:PORT"))?;
    let interval = Duration::from_millis(args.get_u64("interval-ms")?.unwrap_or(1000).max(50));
    let once = args.flag("once");
    let iterations = args.get_u64("iterations")?;
    let mut prev: Option<(f64, Instant)> = None;
    let mut shown = 0u64;
    loop {
        let body = fetch_metrics(addr)
            .map_err(|e| Failure::runtime(format!("fetch {addr}: {e}"), &Probe::disabled()))?;
        let samples = parse_exposition(&body);
        let now = Instant::now();
        let completed = scalar(&samples, "shm_jobs_completed_total").unwrap_or(0.0);
        let throughput = prev.map(|(last, at)| {
            let dt = now.duration_since(at).as_secs_f64();
            if dt > 0.0 {
                (completed - last).max(0.0) / dt
            } else {
                0.0
            }
        });
        prev = Some((completed, now));
        let frame = render_top(&samples, throughput);
        if !once {
            // ANSI clear + home; plain prints compose with `watch`-less
            // terminals and logs.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        let _ = std::io::stdout().flush();
        shown += 1;
        if once || iterations.is_some_and(|n| shown >= n) {
            return Ok(());
        }
        std::thread::sleep(interval);
        if sim_exec::cancel_requested() {
            return Err(Failure::interrupted("top interrupted"));
        }
    }
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
    let mut knobs: Vec<(&'static str, &'static str, &'static str)> = vec![
        (
            sim_exec::JOBS_ENV,
            "auto",
            "worker-pool width for local sweeps (1 = serial)",
        ),
        (
            sim_dist::DIST_WORKERS_ENV,
            "0",
            "loopback workers a --dist sweep spawns in-process",
        ),
        (
            sim_dist::HEARTBEAT_INTERVAL_ENV,
            "500",
            "worker liveness beacon period in ms",
        ),
        (
            sim_dist::HEARTBEAT_TIMEOUT_ENV,
            "5000",
            "coordinator heartbeat miss window in ms",
        ),
        (
            sim_dist::RECONNECT_ATTEMPTS_ENV,
            "5",
            "worker reconnect attempts before giving up",
        ),
    ];
    knobs.extend(shm_pool::ENV_KNOBS.iter().copied());
    knobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_top_reads_worker_series() {
        let body = "shm_jobs_completed_total 7\nshm_dist_jobs_total 12\n\
                    shm_worker_in_flight{worker=\"w1\"} 2\n\
                    shm_worker_queued{worker=\"w1\"} 3\n\
                    shm_worker_completed{worker=\"w1\"} 7\n\
                    shm_worker_heartbeat_age_ms{worker=\"w1\"} 41\n";
        let samples = parse_exposition(body);
        let frame = render_top(&samples, Some(3.5));
        assert!(frame.contains("7/12 jobs done"), "frame:\n{frame}");
        assert!(frame.contains("3.50 jobs/s"), "frame:\n{frame}");
        assert!(frame.contains("w1"), "frame:\n{frame}");
        assert!(frame.contains("41"), "frame:\n{frame}");
    }

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

    /// Every knob of the remote-sweep path has an `shm env` row: the
    /// `--dist` coordinator and `shm worker` (sim-dist) and the executor
    /// they run jobs on (sim-exec).
    #[test]
    fn every_serve_knob_is_in_the_env_table() {
        assert_knobs_in_table(
            &knob_literals(&["sim-dist", "sim-exec"]),
            &[
                sim_dist::DIST_WORKERS_ENV,
                sim_dist::HEARTBEAT_INTERVAL_ENV,
                sim_dist::HEARTBEAT_TIMEOUT_ENV,
                sim_dist::RECONNECT_ATTEMPTS_ENV,
                sim_exec::JOBS_ENV,
            ],
        );
    }

    /// Every knob literal in any crate's sources has an `shm env` row, and
    /// README's "Environment knobs" table lists exactly the `shm env` rows,
    /// in the same order.
    #[test]
    fn env_table_covers_every_knob_and_matches_the_readme() {
        assert_knobs_in_table(
            &knob_literals(&[]),
            &[sim_exec::JOBS_ENV, sim_dist::DIST_WORKERS_ENV],
        );
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
