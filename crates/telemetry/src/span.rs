//! Distributed trace spans for sweep jobs.
//!
//! A **trace** covers one sweep; it gets a root span plus one child span per
//! job.  Span ids are minted at submission (root = 1, job `i` = `i + 2`) so
//! a local `--jobs N` run and a `--dist` loopback run of the same sweep
//! produce the same span-tree *shape* even though timings differ.  Spans are
//! written to the JSONL telemetry document as `{"type":"span",...}` lines
//! and reconstructed by `shm trace-report`.

use crate::event::json_escape;
use gpu_types::json::{str_field, u64_field};
use std::fmt::Write as _;

/// Span id of the root span of every trace.
pub const ROOT_SPAN_ID: u64 = 1;

/// Span id for job `index` within its trace.
pub fn job_span_id(index: usize) -> u64 {
    index as u64 + 2
}

/// One completed span (all times are milliseconds relative to trace start).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Trace this span belongs to (minted once per sweep).
    pub trace_id: u64,
    /// Unique id within the trace.
    pub span_id: u64,
    /// Parent span id; `None` for the root.
    pub parent: Option<u64>,
    /// Human-readable label (job label, or the sweep name for the root).
    pub label: String,
    /// Worker that executed the span (`local` for in-process execution).
    pub worker: String,
    /// Start, relative to trace start (ms).
    pub start_ms: u64,
    /// End, relative to trace start (ms).
    pub end_ms: u64,
    /// Time spent queued before dispatch (ms).
    pub queue_ms: u64,
    /// Pure execution time as measured by the executing worker (ms).
    pub run_ms: u64,
    /// Simulated cycles covered by this span (0 when unknown).
    pub cycles: u64,
}

impl SpanEvent {
    /// Appends this span as one JSONL object line (no trailing newline),
    /// tagged with the document-wide `seq` and wall-clock `ts_ms`.
    pub fn write_json(&self, seq: u64, ts_ms: u64, out: &mut String) {
        let _ = write!(
            out,
            "{{\"type\":\"span\",\"trace\":{},\"span\":{},\"parent\":",
            self.trace_id, self.span_id
        );
        match self.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"label\":\"{}\",\"worker\":\"{}\",\"start_ms\":{},\"end_ms\":{},\"queue_ms\":{},\"run_ms\":{},\"cycles\":{},\"seq\":{seq},\"ts_ms\":{ts_ms}}}",
            json_escape(&self.label),
            json_escape(&self.worker),
            self.start_ms,
            self.end_ms,
            self.queue_ms,
            self.run_ms,
            self.cycles,
        );
    }

    /// Parses one `{"type":"span",...}` JSONL line; `None` when the line is
    /// not a span record or is malformed.
    pub fn parse_json(line: &str) -> Option<SpanEvent> {
        if str_field(line, "type")? != "span" {
            return None;
        }
        Some(SpanEvent {
            trace_id: u64_field(line, "trace")?,
            span_id: u64_field(line, "span")?,
            parent: u64_field(line, "parent"),
            label: str_field(line, "label")?,
            worker: str_field(line, "worker")?,
            start_ms: u64_field(line, "start_ms")?,
            end_ms: u64_field(line, "end_ms")?,
            queue_ms: u64_field(line, "queue_ms")?,
            run_ms: u64_field(line, "run_ms")?,
            cycles: u64_field(line, "cycles")?,
        })
    }

    /// Span duration (end − start) in ms.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// Input for [`build_job_spans`]: one job's observed timing.
#[derive(Clone, Debug)]
pub struct JobSpanInput {
    /// Submission-order job index (fixes the span id).
    pub index: usize,
    /// Job label (bench/design name).
    pub label: String,
    /// Executing worker id (`local` for in-process jobs).
    pub worker: String,
    /// Dispatch time relative to trace start (ms); queue wait equals this
    /// because every job is submitted at trace start.
    pub dispatch_ms: u64,
    /// Completion time relative to trace start (ms).
    pub end_ms: u64,
    /// Worker-measured execution nanoseconds.
    pub run_ns: u64,
    /// Simulated cycles reported by the job (0 when unknown).
    pub cycles: u64,
}

/// Builds the canonical span tree for one sweep: a root span covering all
/// jobs plus one child span per job.  Used identically by the local executor
/// path and the distributed coordinator path, so both produce the same
/// tree shape.
pub fn build_job_spans(trace_id: u64, sweep_label: &str, jobs: &[JobSpanInput]) -> Vec<SpanEvent> {
    let end = jobs.iter().map(|j| j.end_ms).max().unwrap_or(0);
    let mut spans = Vec::with_capacity(jobs.len() + 1);
    spans.push(SpanEvent {
        trace_id,
        span_id: ROOT_SPAN_ID,
        parent: None,
        label: sweep_label.to_string(),
        worker: String::new(),
        start_ms: 0,
        end_ms: end,
        queue_ms: 0,
        run_ms: end,
        cycles: jobs.iter().map(|j| j.cycles).sum(),
    });
    for job in jobs {
        spans.push(SpanEvent {
            trace_id,
            span_id: job_span_id(job.index),
            parent: Some(ROOT_SPAN_ID),
            label: job.label.clone(),
            worker: job.worker.clone(),
            start_ms: job.dispatch_ms.min(job.end_ms),
            end_ms: job.end_ms,
            queue_ms: job.dispatch_ms.min(job.end_ms),
            run_ms: job.run_ns / 1_000_000,
            cycles: job.cycles,
        });
    }
    spans
}

/// Reconstructed view of one trace's spans.
#[derive(Debug)]
pub struct TraceReport {
    pub trace_id: u64,
    pub root: Option<SpanEvent>,
    /// Child spans sorted by span id (submission order).
    pub jobs: Vec<SpanEvent>,
}

impl TraceReport {
    /// Groups parsed spans by trace id (ascending).
    pub fn from_spans(mut spans: Vec<SpanEvent>) -> Vec<TraceReport> {
        spans.sort_by_key(|s| (s.trace_id, s.span_id));
        let mut reports: Vec<TraceReport> = Vec::new();
        for span in spans {
            if reports.last().map(|r| r.trace_id) != Some(span.trace_id) {
                reports.push(TraceReport {
                    trace_id: span.trace_id,
                    root: None,
                    jobs: Vec::new(),
                });
            }
            let report = reports.last_mut().unwrap();
            if span.parent.is_none() {
                report.root = Some(span);
            } else {
                report.jobs.push(span);
            }
        }
        reports
    }

    /// Wall time of the trace (root duration, or max child end).
    pub fn wall_ms(&self) -> u64 {
        match &self.root {
            Some(r) => r.duration_ms(),
            None => self.jobs.iter().map(|j| j.end_ms).max().unwrap_or(0),
        }
    }

    /// Sum of per-job queue waits and of worker-measured run times.
    pub fn queue_vs_run_ms(&self) -> (u64, u64) {
        let queue = self.jobs.iter().map(|j| j.queue_ms).sum();
        let run = self.jobs.iter().map(|j| j.run_ms).sum();
        (queue, run)
    }

    /// Total simulated cycles across all job spans.
    pub fn total_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.cycles).sum()
    }

    /// The critical path: the job span that finishes last (it determines
    /// the trace's wall time in a fully parallel submission).
    pub fn critical_path(&self) -> Option<&SpanEvent> {
        self.jobs.iter().max_by_key(|j| j.end_ms)
    }

    /// Checks the structural invariants of this trace's span tree; returns
    /// every violation found (empty = consistent).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen = std::collections::HashSet::new();
        if let Some(root) = &self.root {
            seen.insert(root.span_id);
        } else {
            problems.push(format!("trace {}: no root span", self.trace_id));
        }
        for job in &self.jobs {
            if !seen.insert(job.span_id) {
                problems.push(format!("duplicate span id {}", job.span_id));
            }
            match (job.parent, &self.root) {
                (Some(p), Some(root)) if p != root.span_id => {
                    problems.push(format!("span {} parent {} is not the root", job.span_id, p));
                }
                _ => {}
            }
            if job.end_ms < job.start_ms {
                problems.push(format!("span {} ends before it starts", job.span_id));
            }
            if let Some(root) = &self.root {
                if job.end_ms > root.end_ms {
                    problems.push(format!("span {} outlives the root", job.span_id));
                }
            }
        }
        problems
    }

    /// Renders the human-readable report printed by `shm trace-report`.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        let label = self.root.as_ref().map(|r| r.label.as_str()).unwrap_or("?");
        let _ = writeln!(
            out,
            "trace {:#018x}  sweep={}  jobs={}  wall={} ms",
            self.trace_id,
            label,
            self.jobs.len(),
            self.wall_ms()
        );
        let (queue, run) = self.queue_vs_run_ms();
        let _ = writeln!(
            out,
            "  queue-wait total: {queue} ms   run total: {run} ms   cycles: {}",
            self.total_cycles()
        );
        if let Some(cp) = self.critical_path() {
            let _ = writeln!(
                out,
                "  critical path: root -> {} (worker {}, ends at {} ms)",
                cp.label, cp.worker, cp.end_ms
            );
        }
        let mut by_run: Vec<&SpanEvent> = self.jobs.iter().collect();
        by_run.sort_by(|a, b| b.run_ms.cmp(&a.run_ms).then(a.span_id.cmp(&b.span_id)));
        let _ = writeln!(
            out,
            "  {:<6} {:<28} {:<12} {:>9} {:>9} {:>9} {:>12}",
            "span", "label", "worker", "queue_ms", "run_ms", "end_ms", "cycles"
        );
        for job in by_run.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<6} {:<28} {:<12} {:>9} {:>9} {:>9} {:>12}",
                job.span_id,
                truncate(&job.label, 28),
                truncate(&job.worker, 12),
                job.queue_ms,
                job.run_ms,
                job.end_ms,
                job.cycles
            );
        }
        if self.jobs.len() > top_n {
            let _ = writeln!(out, "  ... {} more spans", self.jobs.len() - top_n);
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpanEvent {
        SpanEvent {
            trace_id: 0xfeed,
            span_id: 3,
            parent: Some(ROOT_SPAN_ID),
            label: "fdtd\"2d/SHM".into(),
            worker: "local-0".into(),
            start_ms: 4,
            end_ms: 17,
            queue_ms: 4,
            run_ms: 12,
            cycles: 987,
        }
    }

    #[test]
    fn span_json_round_trips() {
        let span = sample();
        let mut line = String::new();
        span.write_json(42, 1_700_000_000_000, &mut line);
        assert!(line.contains("\"type\":\"span\""));
        assert!(line.contains("\"seq\":42"));
        assert!(line.contains("\"ts_ms\":1700000000000"));
        let parsed = SpanEvent::parse_json(&line).expect("parses");
        assert_eq!(parsed, span);
    }

    #[test]
    fn root_span_parses_with_null_parent() {
        let root = SpanEvent {
            parent: None,
            ..sample()
        };
        let mut line = String::new();
        root.write_json(0, 0, &mut line);
        assert!(line.contains("\"parent\":null"));
        let parsed = SpanEvent::parse_json(&line).unwrap();
        assert_eq!(parsed.parent, None);
    }

    #[test]
    fn non_span_lines_are_rejected() {
        assert!(SpanEvent::parse_json("{\"type\":\"event\",\"cycle\":1}").is_none());
        assert!(SpanEvent::parse_json("not json").is_none());
    }

    #[test]
    fn build_job_spans_makes_one_root_plus_children() {
        let jobs = vec![
            JobSpanInput {
                index: 0,
                label: "a".into(),
                worker: "w0".into(),
                dispatch_ms: 1,
                end_ms: 10,
                run_ns: 8_000_000,
                cycles: 100,
            },
            JobSpanInput {
                index: 1,
                label: "b".into(),
                worker: "w1".into(),
                dispatch_ms: 2,
                end_ms: 20,
                run_ns: 17_000_000,
                cycles: 200,
            },
        ];
        let spans = build_job_spans(7, "fig16", &jobs);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].span_id, ROOT_SPAN_ID);
        assert_eq!(spans[0].end_ms, 20);
        assert_eq!(spans[0].cycles, 300);
        assert_eq!(spans[1].span_id, job_span_id(0));
        assert_eq!(spans[2].parent, Some(ROOT_SPAN_ID));

        let reports = TraceReport::from_spans(spans);
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert!(report.check_invariants().is_empty());
        assert_eq!(report.wall_ms(), 20);
        assert_eq!(report.queue_vs_run_ms(), (3, 25));
        assert_eq!(report.critical_path().unwrap().label, "b");
        let text = report.render(10);
        assert!(text.contains("critical path: root -> b"));
        assert!(text.contains("fig16"));
    }

    #[test]
    fn invariant_checker_flags_orphans_and_duplicates() {
        let mut spans = build_job_spans(9, "s", &[]);
        spans.push(SpanEvent {
            trace_id: 9,
            span_id: 5,
            parent: Some(99),
            ..sample()
        });
        spans.push(SpanEvent {
            trace_id: 9,
            span_id: 5,
            parent: Some(ROOT_SPAN_ID),
            end_ms: 0,
            start_ms: 3,
            ..sample()
        });
        let reports = TraceReport::from_spans(spans);
        let problems = reports[0].check_invariants();
        assert!(problems.iter().any(|p| p.contains("not the root")));
        assert!(problems.iter().any(|p| p.contains("duplicate")));
        assert!(problems.iter().any(|p| p.contains("ends before")));
    }
}
