//! Atomic counters, the global name registry, and the Prometheus
//! text-format renderer.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Global on/off gate. While false every update is one relaxed load + branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Sets the collection gate.
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

/// One registered counter and its help text.
struct Family {
    name: &'static str,
    help: &'static str,
    counter: Arc<Counter>,
}

fn registry() -> &'static Mutex<Vec<Family>> {
    static REG: OnceLock<Mutex<Vec<Family>>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
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

/// Registers (or fetches) the counter `name`.
pub fn register_counter(name: &'static str, help: &'static str) -> Arc<Counter> {
    assert!(is_valid_metric_name(name), "bad metric name: {name}");
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(family) = reg.iter().find(|f| f.name == name) {
        return family.counter.clone();
    }
    let counter = Arc::<Counter>::default();
    reg.push(Family {
        name,
        help,
        counter: counter.clone(),
    });
    counter
}

/// Caches a counter per call site; one atomic load afterwards.
#[macro_export]
macro_rules! counter {
    ($name:literal, $help:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::register_counter($name, $help))
    }};
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders every registered counter (plus any recorded profiler phases) in
/// the Prometheus text exposition format 0.0.4.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for family in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(family.help));
        let _ = writeln!(out, "# TYPE {} counter", family.name);
        let _ = writeln!(out, "{} {}", family.name, family.counter.get());
    }
    crate::phase::render_prometheus_into(&mut out);
    out
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
    }

    #[test]
    fn counter_records_when_enabled() {
        let _g = test_lock();
        set_enabled(true);
        let c = register_counter("shm_test_basic_total", "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        set_enabled(false);
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        let _g = test_lock();
        set_enabled(true);
        let a = register_counter("shm_test_idem_total", "test");
        let b = register_counter("shm_test_idem_total", "test");
        let other = register_counter("shm_test_idem_other_total", "test");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(other.get(), 0);
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
    fn exposition_has_help_type_and_sample_lines() {
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
        // Every exposed family is a counter, and its name passes the
        // charset rule.
        for l in text.lines() {
            if let Some(rest) = l.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                assert!(is_valid_metric_name(name), "bad exposed name {name}");
                assert_eq!(kind, "counter", "{l}");
            }
        }
        set_enabled(false);
    }
}
