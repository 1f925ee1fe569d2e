//! The benchmark's declarations, read from the repository's
//! `BENCHMARK.json` so metric names, units and bounds live in one place.

use std::sync::OnceLock;

use crate::json::Json;

/// The declaration file, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the benchmark itself uses.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The compiled-in declarations.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing list {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{key}: metric without {k:?}"))
                };
                Ok(Metric {
                    name: field("name")?.to_string(),
                    unit: field("unit")?.to_string(),
                    higher_is_better: match field("better")? {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("{key}: bad direction {other:?}")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("missing run_seconds")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn workload_names(doc: &Json) -> Vec<&str> {
        doc.get("workloads")
            .and_then(Json::as_array)
            .expect("a workloads list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("a name"))
            .collect()
    }

    #[test]
    fn declarations_follow_the_benchmark_contract() {
        let doc = Json::parse(BENCHMARK_JSON).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 << 10);

        let s = spec();
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);
        let mut names = workload_names(&doc);
        assert!((2..=8).contains(&names.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));

        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(is_name(&m.name), "bad metric name {:?}", m.name);
            assert!(is_unit(&m.unit), "bad unit {:?} of {}", m.unit, m.name);
            names.push(&m.name);
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");

        for m in &s.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(
            s.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        for w in doc.get("workloads").and_then(Json::as_array).expect("list") {
            let why = w.get("why").and_then(Json::as_str).expect("a why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
    }

    #[test]
    fn declared_workloads_are_the_implemented_ones() {
        let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let doc = Json::parse(BENCHMARK_JSON).expect("valid JSON");
        assert_eq!(workload_names(&doc), implemented);
    }
}
