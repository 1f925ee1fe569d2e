//! Atomic metric primitives, the global name registry, and the Prometheus
//! text-format renderer / parser.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Global on/off gate. While false every update is one relaxed load + branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric collection on.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Sets the collection gate explicitly (tests / teardown).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// True when metric updates are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one (no-op while the registry is disabled).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while the registry is disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// Instantaneous signed value (queue depths, config knobs, ages).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge (no-op while the registry is disabled).
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Relaxed);
        }
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        if enabled() {
            self.value.fetch_add(d, Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    series: Vec<Series>,
}

#[derive(Default)]
struct Registry {
    families: Vec<Family>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` per the Prometheus data model.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` per the Prometheus data model.
pub fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn register(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> Metric,
) -> Metric {
    assert!(is_valid_metric_name(name), "bad metric name: {name}");
    for (k, _) in labels {
        assert!(is_valid_label_name(k), "bad label name: {k}");
    }
    let labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut reg = registry().lock().unwrap();
    let metric = make();
    let kind = metric.kind();
    let family = match reg.families.iter_mut().find(|f| f.name == name) {
        Some(f) => {
            assert_eq!(f.kind, kind, "metric {name} re-registered as {kind}");
            f
        }
        None => {
            reg.families.push(Family {
                name,
                help,
                kind,
                series: Vec::new(),
            });
            reg.families.last_mut().unwrap()
        }
    };
    if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
        return existing.metric.clone();
    }
    family.series.push(Series {
        labels,
        metric: metric.clone(),
    });
    metric
}

/// Registers (or fetches) the unlabeled counter `name`.
pub fn register_counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    match register(name, help, &[], || Metric::Counter(Arc::default())) {
        Metric::Counter(c) => c,
        _ => unreachable!(),
    }
}

/// Registers (or fetches) the unlabeled gauge `name`.
pub fn register_gauge(name: &'static str, help: &'static str) -> Arc<Gauge> {
    match register(name, help, &[], || Metric::Gauge(Arc::default())) {
        Metric::Gauge(g) => g,
        _ => unreachable!(),
    }
}

/// Registers (or fetches) one labeled gauge series, e.g. per-worker state.
pub fn labeled_gauge(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
) -> Arc<Gauge> {
    match register(name, help, labels, || Metric::Gauge(Arc::default())) {
        Metric::Gauge(g) => g,
        _ => unreachable!(),
    }
}

/// Registers (or fetches) one labeled counter series.
pub fn labeled_counter(
    name: &'static str,
    help: &'static str,
    labels: &[(&str, &str)],
) -> Arc<Counter> {
    match register(name, help, labels, || Metric::Counter(Arc::default())) {
        Metric::Counter(c) => c,
        _ => unreachable!(),
    }
}

/// Caches an unlabeled counter per call site; one atomic load afterwards.
#[macro_export]
macro_rules! counter {
    ($name:literal, $help:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::register_counter($name, $help))
    }};
}

/// Caches an unlabeled gauge per call site.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $help:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::register_gauge($name, $help))
    }};
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders every registered family (plus any recorded profiler phases) in
/// the Prometheus text exposition format 0.0.4.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    let reg = registry().lock().unwrap();
    for family in &reg.families {
        let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(family.help));
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
        for series in &family.series {
            let value = match &series.metric {
                Metric::Counter(c) => c.get().to_string(),
                Metric::Gauge(g) => g.get().to_string(),
            };
            let _ = writeln!(
                out,
                "{}{} {value}",
                family.name,
                label_block(&series.labels)
            );
        }
    }
    drop(reg);
    crate::phase::render_prometheus_into(&mut out);
    out
}

/// One parsed exposition sample (for `shm top` and smoke assertions).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition back into samples; skips comments and
/// lines it cannot understand (a scraper must be lenient).
pub fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_and_labels, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => {
                if value == "+Inf" {
                    f64::INFINITY
                } else {
                    continue;
                }
            }
        };
        let (name, labels) = match name_and_labels.split_once('{') {
            None => (name_and_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let rest = rest.trim_end_matches('}');
                let mut labels = Vec::new();
                for part in split_label_pairs(rest) {
                    if let Some((k, v)) = part.split_once('=') {
                        let v = v.trim_matches('"');
                        labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                    }
                }
                (name.to_string(), labels)
            }
        };
        out.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

/// Splits `k1="v1",k2="v2"` on commas outside quoted values.
fn split_label_pairs(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < s.len() {
        parts.push(&s[start..]);
    }
    parts
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_updates_are_dropped() {
        let _g = test_lock();
        set_enabled(false);
        let c = register_counter("shm_test_disabled_total", "test");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = register_gauge("shm_test_disabled_gauge", "test");
        g.set(5);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn counter_gauge_histogram_record_when_enabled() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_basic_total", "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = register_gauge("shm_test_basic_gauge", "test");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        set_enabled(false);
    }

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let _g = test_lock();
        set_enabled(true);
        let a = register_counter("shm_test_idem_total", "test");
        let b = register_counter("shm_test_idem_total", "test");
        a.inc();
        assert_eq!(b.get(), 1);
        let g1 = labeled_gauge("shm_test_idem_gauge", "test", &[("worker", "w0")]);
        let g2 = labeled_gauge("shm_test_idem_gauge", "test", &[("worker", "w0")]);
        let g3 = labeled_gauge("shm_test_idem_gauge", "test", &[("worker", "w1")]);
        g1.set(9);
        assert_eq!(g2.get(), 9);
        assert_eq!(g3.get(), 0);
        set_enabled(false);
    }

    #[test]
    fn name_and_label_charsets() {
        assert!(is_valid_metric_name("shm_accesses_total"));
        assert!(is_valid_metric_name("_x:y9"));
        assert!(!is_valid_metric_name("9leading"));
        assert!(!is_valid_metric_name("has-dash"));
        assert!(!is_valid_metric_name(""));
        assert!(is_valid_label_name("worker"));
        assert!(!is_valid_label_name("le:")); // colon not allowed in labels
        assert!(!is_valid_label_name("1st"));
    }

    #[test]
    fn exposition_has_help_type_and_monotone_buckets() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_expo_total", "exposition test");
        c.add(3);
        let text = render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines
            .iter()
            .position(|l| *l == "# HELP shm_test_expo_total exposition test")
            .expect("HELP line");
        assert_eq!(lines[help + 1], "# TYPE shm_test_expo_total counter");
        let sample = lines[help + 2];
        assert!(sample.starts_with("shm_test_expo_total "), "{sample}");
        // Every exposed family is a counter or a gauge, and its name passes
        // the charset rule.
        for l in text.lines() {
            if let Some(rest) = l.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                assert!(is_valid_metric_name(name), "bad exposed name {name}");
                assert!(kind == "counter" || kind == "gauge", "{l}");
            }
        }
        set_enabled(false);
    }

    #[test]
    fn parse_round_trips_rendered_text() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_parse_total", "parse test");
        c.add(3);
        let g = labeled_gauge("shm_test_parse_gauge", "parse test", &[("worker", "w-1")]);
        g.set(42);
        let samples = parse_exposition(&render_prometheus());
        let c = samples
            .iter()
            .find(|s| s.name == "shm_test_parse_total")
            .unwrap();
        assert!(c.value >= 3.0);
        let g = samples
            .iter()
            .find(|s| s.name == "shm_test_parse_gauge" && s.label("worker") == Some("w-1"))
            .unwrap();
        assert_eq!(g.value, 42.0);
        set_enabled(false);
    }
}
