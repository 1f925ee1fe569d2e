//! In-memory spans around the benchmark's calls into each layer: name,
//! start, end, parent span and job id, kept until the traced run ends and
//! then written out as JSON lines.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the job (or trace) this span worked on.
    pub job: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                job,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Durations (s) of the spans named `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Total duration (s) of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Each span's self time (ns): its duration minus the time its child
    /// spans cover.  Children of one span never overlap (one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Every span as one JSON line, with its self time.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.borrow().iter().zip(self.self_ns()).enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":{},\"span\":{i},\"name\":{},\"job\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                json::quote(workload),
                json::quote(s.name),
                opt(s.job),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        t.span("outer", None, || {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", Some(3), || {
                std::thread::sleep(Duration::from_millis(10))
            });
        });
        let own = t.self_ns();
        let outer = t.total_s("outer");
        let inner = t.total_s("inner");
        assert!(inner >= 0.010 && outer >= inner + 0.005);
        assert_eq!(own[0] + own[1], (outer * 1e9).round() as u64);
        assert_eq!(own[1], (inner * 1e9).round() as u64);
        let lines = t.to_jsonl("w");
        assert_eq!(lines.lines().count(), 2);
        let inner_line =
            crate::json::Json::parse(lines.lines().nth(1).expect("two lines")).expect("valid JSON");
        assert_eq!(inner_line.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(inner_line.get("job").and_then(|p| p.as_f64()), Some(3.0));
    }
}
