//! Output sinks: the lines of the streamed JSONL document, epoch CSV,
//! human-readable summary, flight-recorder dump.
//!
//! The JSONL document is one `meta` line, then `event` and `epoch` lines
//! interleaved in production order, then one `hist` line per histogram and
//! a trailing `drops` line making any sampling loss explicit.
//! [`crate::Telemetry::attach_stream`] writes it.  Event lines are
//! [`Event::write_json`] output, the same lines [`flight_dump`] prints.

use crate::event::Event;
use crate::hist::Histogram;
use crate::{EpochSnapshot, PartitionEpoch, Telemetry, RING_CAPACITY, SAMPLE_STRIDE};
use gpu_types::TrafficClass;
use std::fmt::Write as _;

/// Appends the leading `meta` JSONL object (no trailing newline).
pub fn meta_json(epoch_cycles: u64, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"meta\",\"epoch_cycles\":{epoch_cycles},\"sample_stride\":{SAMPLE_STRIDE},\"ring_capacity\":{RING_CAPACITY}}}"
    );
}

/// Appends the trailing `drops` JSONL object (no trailing newline) making
/// any sampling loss explicit, with exact per-kind totals.
pub fn drops_json(t: &Telemetry, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"drops\",\"sampled_out\":{},\"kind_totals\":{{",
        t.sampled_out()
    );
    for (i, &total) in t.kind_totals().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", Event::kind_label(i), total);
    }
    out.push_str("}}");
}

/// Renders completed epoch snapshots as CSV, mirroring the JSONL `epoch`
/// schema: identity columns, per-class read/write byte columns, the counter
/// columns, then per-partition breakdown columns (`p<i>_read_bytes`, …) for
/// every partition any epoch touched — rows are zero-padded to that width
/// so the table is always rectangular.
pub fn epoch_csv(t: &Telemetry) -> String {
    let num_partitions = t
        .snapshots()
        .iter()
        .map(|s| s.partitions.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    EpochSnapshot::write_csv_header("", &mut out);
    for p in 0..num_partitions {
        PartitionEpoch::write_csv_header(&format!("p{p}_"), &mut out);
    }
    out.pop();
    out.push('\n');
    let zero = PartitionEpoch::default();
    for s in t.snapshots() {
        s.write_csv_row(&mut out);
        for p in 0..num_partitions {
            s.partitions.get(p).unwrap_or(&zero).write_csv_row(&mut out);
        }
        out.pop();
        out.push('\n');
    }
    out
}

/// The histograms a collection exports, with their JSONL names.
pub fn named_histograms(t: &Telemetry) -> [(&'static str, &Histogram); 3] {
    [
        ("dram_latency", &t.dram_latency),
        ("mshr_residency", &t.mshr_residency),
        ("engine_depth", &t.engine_depth),
    ]
}

/// Appends one histogram as a JSON object line (no trailing newline).
pub fn hist_json(name: &str, h: &Histogram, out: &mut String) {
    let _ = write!(
        out,
        "{{\"type\":\"hist\",\"name\":\"{name}\",\"count\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        h.count(),
        h.min(),
        h.max(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99)
    );
    for (i, (lo, count)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{lo},{count}]");
    }
    out.push_str("]}");
}

/// Human-readable end-of-run report.
pub fn summary(t: &Telemetry) -> String {
    let mut out = String::new();
    out.push_str("telemetry summary\n");
    out.push_str("  events (exact totals; log is sampled):\n");
    for (i, &total) in t.kind_totals().iter().enumerate() {
        if total > 0 {
            let _ = writeln!(out, "    {:<20} {}", Event::kind_label(i), total);
        }
    }
    if t.sampled_out() > 0 {
        let _ = writeln!(
            out,
            "    ({} high-frequency events sampled out of the log; totals above are exact)",
            t.sampled_out()
        );
    }
    let _ = writeln!(out, "  epochs: {}", t.snapshots().len());
    let total = t.total_traffic();
    for class in TrafficClass::ALL {
        let bytes = total.class_total(class);
        if bytes > 0 {
            let _ = writeln!(out, "    {:<10} {} B", class.label(), bytes);
        }
    }
    let _ = writeln!(out, "  dram requests: {}", t.dram_requests());
    for (name, h) in named_histograms(t) {
        if h.count() == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<15} n={} mean={:.1} p50={} p95={} p99={} max={}",
            name,
            h.count(),
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            h.max()
        );
    }
    out
}

/// Formats the flight recorder (most recent events, oldest first) as JSONL —
/// the payload dumped on panic or fatal error.
pub fn flight_dump(t: &Telemetry) -> String {
    let mut out = String::new();
    for (cycle, event) in t.flight_recorder() {
        event.write_json(*cycle, &mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hook, Probe, TelemetryConfig};

    fn cfg() -> TelemetryConfig {
        TelemetryConfig { epoch_cycles: 100 }
    }

    fn populate(p: &Probe) {
        p.emit(
            0,
            Event::KernelStart {
                kernel: "k0".into(),
            },
        );
        p.emit(
            5,
            Event::L2Miss {
                bank: 1,
                addr: 4096,
            },
        );
        p.record(Hook::Traffic {
            cycle: 5,
            partition: 1,
            class: TrafficClass::Data,
            bytes: 128,
            is_write: false,
        });
        p.record(Hook::DramRequest {
            cycle: 40,
            latency: 35,
        });
        p.emit(
            250,
            Event::KernelEnd {
                kernel: "k0".into(),
                cycles: 250,
            },
        );
        p.finalize(250);
    }

    fn populated() -> Probe {
        let p = Probe::enabled(cfg());
        populate(&p);
        p
    }

    /// The JSONL document a populated probe streams.
    fn populated_doc() -> String {
        let (p, doc) = crate::tests::streaming(cfg());
        populate(&p);
        doc()
    }

    #[test]
    fn jsonl_contains_all_record_types() {
        let doc = populated_doc();
        for ty in [
            "\"type\":\"meta\"",
            "\"type\":\"event\"",
            "\"type\":\"epoch\"",
            "\"type\":\"hist\"",
            "\"type\":\"drops\"",
        ] {
            assert!(doc.contains(ty), "missing {ty} in {doc}");
        }
        // Three epochs: cycles 0..100, 100..200, 200..250 (final partial).
        assert_eq!(doc.matches("\"type\":\"epoch\"").count(), 3);
        assert!(doc.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        // Meta comes first and drops last.
        assert!(doc.starts_with(
            "{\"type\":\"meta\",\"epoch_cycles\":100,\"sample_stride\":64,\"ring_capacity\":256}\n"
        ));
        assert!(doc
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"type\":\"drops\""));
    }

    #[test]
    fn summary_mentions_populated_sections() {
        let s = populated().summary().unwrap();
        assert!(s.contains("kernel_start"));
        assert!(s.contains("dram requests: 1"));
        assert!(s.contains("dram_latency"));
        assert!(s.contains("data"));
    }

    #[test]
    fn flight_dump_is_jsonl_of_ring() {
        let dump = populated().flight_dump().unwrap();
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.lines().all(|l| l.contains("\"type\":\"event\"")));
    }

    #[test]
    fn epoch_csv_mirrors_jsonl_epoch_schema() {
        let csv = populated().with(|t| epoch_csv(t)).unwrap();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("index,start_cycle,end_cycle,read_"));
        assert!(header.contains(
            "instructions,accesses,l2_hits,l2_misses,dram_requests,ctr_victims,ctr_victim_uses,bmt_walks,bmt_depth_sum,bmt_depth_max"
        ));
        // Traffic landed in partition 1, so the breakdown covers p0..p1.
        assert!(header.ends_with(
            "p0_read_bytes,p0_write_bytes,p0_l2_hits,p0_l2_misses,p1_read_bytes,p1_write_bytes,p1_l2_hits,p1_l2_misses"
        ));
        let cols = header.split(',').count();
        // Same epochs as the JSONL document: 0..100, 100..200, 200..250.
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
        // 128 B of data-class read traffic lands in the first epoch.
        assert!(rows[0].contains(",128"), "first epoch row: {}", rows[0]);
        assert!(rows[0].starts_with("0,0,99"));
        assert!(rows[2].starts_with("2,200,250"));
    }

    /// Top-level keys of one JSON object line, in order (the epoch line's
    /// strings hold no escaped quotes).
    fn top_level_keys(line: &str) -> Vec<&str> {
        let mut keys = Vec::new();
        let mut depth = 0;
        let mut i = 0;
        while i < line.len() {
            match line.as_bytes()[i] {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b'"' => {
                    let end = i + 1 + line[i + 1..].find('"').expect("closed string");
                    if depth == 1 && line[end + 1..].starts_with(':') {
                        keys.push(&line[i + 1..end]);
                    }
                    i = end;
                }
                _ => {}
            }
            i += 1;
        }
        keys
    }

    /// The declared columns with `traffic` replaced by its cells.
    fn expand_traffic(traffic: &[String]) -> Vec<String> {
        EpochSnapshot::COLUMNS
            .iter()
            .flat_map(|&c| match c {
                "traffic" => traffic.to_vec(),
                c => vec![c.to_string()],
            })
            .collect()
    }

    #[test]
    fn epoch_jsonl_keys_and_csv_columns_follow_the_declaration() {
        let doc = populated_doc();
        let line = doc
            .lines()
            .find(|l| l.contains("\"type\":\"epoch\""))
            .unwrap();
        let mut json_keys = vec!["type".to_string()];
        json_keys.extend(expand_traffic(&[
            "read_bytes".to_string(),
            "write_bytes".to_string(),
        ]));
        json_keys.push("partitions".to_string());
        assert_eq!(top_level_keys(line), json_keys);

        let csv = populated().with(|t| epoch_csv(t)).unwrap();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let cells: Vec<String> = ["read", "write"]
            .iter()
            .flat_map(|dir| TrafficClass::ALL.map(|c| format!("{dir}_{}", c.label())))
            .collect();
        let mut columns = expand_traffic(&cells);
        for part in ["p0_", "p1_"] {
            columns.extend(PartitionEpoch::COLUMNS.iter().map(|c| format!("{part}{c}")));
        }
        assert_eq!(header, columns);
    }

    #[test]
    fn documented_csv_header_matches_the_fixed_columns() {
        let doc = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/TELEMETRY.md"),
        )
        .expect("docs/TELEMETRY.md readable");
        let section = &doc[doc.find("### Epoch CSV export").expect("CSV section")..];
        let block = &section[section.find("```text\n").expect("header block") + 8..];
        let documented: String = block[..block.find("```").expect("closed block")]
            .lines()
            .map(str::trim)
            .collect();
        // No snapshots, so no per-partition columns: the header is exactly
        // the fixed columns.
        let csv = epoch_csv(&Telemetry::new(cfg()));
        assert_eq!(documented, csv.trim_end());
    }
}
