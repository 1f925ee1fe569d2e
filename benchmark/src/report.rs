//! Results of one workload run: metric summaries in declaration order, the
//! outcome of every check, and the three ways they are written out (a
//! human table, the one-line JSON result and `results.json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host_speed::NOMINAL_LOOP_S;
use crate::json::{self, Json};
use crate::spec::Metric;
use crate::stats::Summary;
use crate::workload::Workload;

/// Attempted operations and the failures among them.  An operation is a
/// child invocation or an output check; a failure is a non-zero exit, a
/// timeout, or output that is wrong or differs between repetitions.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempt; returns whether it succeeded.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failures.push(e);
                false
            }
        }
    }
}

/// `Err(message)` unless `ok`.
pub fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(message())
    }
}

#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    /// `end_to_end` or `per_layer`.
    pub kind: &'static str,
    pub metrics: Vec<(Metric, Summary)>,
    pub checks: Checks,
    /// Digest of the timed command's output, recorded for review.
    pub digest: Option<String>,
    /// Times of the host-speed loop that normalized the host-time metrics;
    /// seconds measured = normalized seconds × loop seconds / nominal.
    pub host_loop_s: Option<Summary>,
}

impl Report {
    /// Orders `values` as `declared` lists them; a declared metric without
    /// a value, or a value for an undeclared metric, is an error.
    pub fn new(
        workload: Workload,
        kind: &'static str,
        declared: &[Metric],
        mut values: BTreeMap<&str, Summary>,
        checks: Checks,
        digest: Option<String>,
    ) -> Result<Report, String> {
        let mut metrics = Vec::new();
        for m in declared {
            let summary = values
                .remove(m.name.as_str())
                .ok_or_else(|| format!("{}: no value for metric {}", workload.name(), m.name))?;
            if summary.samples.iter().any(|v| !v.is_finite()) {
                return Err(format!("{}: {} is not finite", workload.name(), m.name));
            }
            metrics.push((m.clone(), summary));
        }
        if let Some(extra) = values.keys().next() {
            return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
        }
        Ok(Report {
            workload,
            kind,
            metrics,
            checks,
            digest,
            host_loop_s: None,
        })
    }

    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// One line per metric: name, unit, median, quartiles and sample
    /// count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\n{:<30} {:>10} {:>14} {:>14} {:>14} {:>4}\n",
            self.workload.name(),
            self.kind,
            "metric",
            "unit",
            "median",
            "q1",
            "q3",
            "n"
        );
        for (m, s) in &self.metrics {
            let _ = writeln!(
                out,
                "{:<30} {:>10} {:>14.6} {:>14.6} {:>14.6} {:>4}",
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.samples.len()
            );
        }
        if let Some(s) = &self.host_loop_s {
            let _ = writeln!(
                out,
                "host-speed loop: median {:.6} s [{:.6}, {:.6}] over {} rounds (nominal {} s)",
                s.median,
                s.q1,
                s.q3,
                s.samples.len(),
                NOMINAL_LOOP_S
            );
        }
        let _ = writeln!(
            out,
            "checks: {} attempted, {} failed",
            self.checks.attempted,
            self.checks.failures.len()
        );
        for f in &self.checks.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        out
    }

    /// The one-line JSON result: every metric's median with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, s)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(s.median),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted,
            self.checks.failures.len(),
            metrics.join(", ")
        )
    }

    fn to_json(&self) -> String {
        let numbers = |values: &[f64]| {
            let items: Vec<String> = values.iter().map(|&v| json::number(v)).collect();
            format!("[{}]", items.join(", "))
        };
        let mut out = format!(
            "    {{\"workload\": {}, \"kind\": {}, \"attempted\": {}, \"failed\": {}, \
             \"stdout_digest\": {},\n     \"host_loop_s\": {}, \"nominal_loop_s\": {},\n     \
             \"failures\": [{}],\n     \"metrics\": [\n",
            json::quote(self.workload.name()),
            json::quote(self.kind),
            self.checks.attempted,
            self.checks.failures.len(),
            self.digest
                .as_deref()
                .map_or("null".to_string(), json::quote),
            self.host_loop_s
                .as_ref()
                .map_or("null".to_string(), |s| numbers(&s.samples)),
            json::number(NOMINAL_LOOP_S),
            self.checks
                .failures
                .iter()
                .map(|f| json::quote(f))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let lines: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, s)| {
                format!(
                    "      {{\"name\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \
                     \"q3\": {}, \"samples\": {}}}",
                    json::quote(&m.name),
                    json::quote(&m.unit),
                    json::number(s.median),
                    json::number(s.q1),
                    json::number(s.q3),
                    numbers(&s.samples)
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n     ]}");
        out
    }
}

/// Host facts every results file records.
pub struct RunEnv {
    pub nproc: usize,
    pub git_rev: String,
    pub rustc: String,
    pub aes_backend: &'static str,
}

/// The whole `results.json` document.
pub fn results_json(env: &RunEnv, seed: u64, reports: &[Report]) -> String {
    let body: Vec<String> = reports.iter().map(Report::to_json).collect();
    format!(
        "{{\n  \"schema\": \"shm-benchmark-results/v1\",\n  \"seed\": {seed},\n  \
         \"env\": {{\"nproc\": {}, \"git_rev\": {}, \"rustc\": {}, \"aes_backend\": {}}},\n  \
         \"reports\": [\n{}\n  ]\n}}\n",
        env.nproc,
        json::quote(&env.git_rev),
        json::quote(&env.rustc),
        json::quote(env.aes_backend),
        body.join(",\n")
    )
}

/// The samples of every metric in a results document, keyed by
/// (workload, metric).
pub fn read_samples(doc: &Json) -> Result<BTreeMap<(String, String), Summary>, String> {
    let mut out = BTreeMap::new();
    for report in doc
        .get("reports")
        .and_then(Json::as_array)
        .ok_or("no reports list")?
    {
        let workload = report
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("report without a workload")?;
        for m in report
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("report without metrics")?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unnamed metric")?;
            let samples: Vec<f64> = m
                .get("samples")
                .and_then(Json::as_array)
                .ok_or("metric without samples")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric sample"))
                .collect::<Result<_, _>>()?;
            if samples.is_empty() {
                return Err(format!("{workload} {name}: no samples"));
            }
            out.insert(
                (workload.to_string(), name.to_string()),
                Summary::of(samples),
            );
        }
    }
    Ok(out)
}

/// FNV-1a hex digest of program output (for review, never compared to a
/// pin); the algorithm is fixed, so digests compare across toolchains.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", sim_dist::protocol::payload_digest(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;

    fn report_with(values: &[(String, f64)]) -> Result<Report, String> {
        let map = values
            .iter()
            .map(|(n, v)| (n.as_str(), Summary::of(vec![*v, v * 1.5])))
            .collect();
        Report::new(
            Workload::StreamRo,
            "end_to_end",
            &spec().end_to_end,
            map,
            Checks::default(),
            Some(digest(b"out")),
        )
    }

    fn all_values() -> Vec<(String, f64)> {
        spec()
            .end_to_end
            .iter()
            .map(|m| (m.name.clone(), 2.0))
            .collect()
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let r = report_with(&all_values()).expect("complete");
        let line = Json::parse(&r.result_line()).expect("valid JSON");
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_object).expect("map");
        assert_eq!(metrics.len(), spec().end_to_end.len());
        let wall = line
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn missing_or_undeclared_metrics_are_errors() {
        let mut values = all_values();
        values.pop();
        assert!(report_with(&values).is_err());
        let mut values = all_values();
        values.push(("made_up".to_string(), 1.0));
        assert!(report_with(&values).is_err());
    }

    #[test]
    fn results_json_round_trips_samples() {
        let r = report_with(&all_values()).expect("complete");
        let env = RunEnv {
            nproc: 2,
            git_rev: "abc".into(),
            rustc: "rustc 1".into(),
            aes_backend: "ttable",
        };
        let doc = Json::parse(&results_json(&env, 7, &[r])).expect("valid JSON");
        let samples = read_samples(&doc).expect("readable");
        let wall = &samples[&("stream-ro".to_string(), "wall_s".to_string())];
        assert_eq!(wall.samples, vec![2.0, 3.0]);
    }
}
