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
use crate::{EpochSnapshot, Telemetry, RING_CAPACITY, SAMPLE_STRIDE};
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

/// Renders the epoch snapshots as CSV, mirroring the JSONL `epoch`
/// schema: the identity columns, then one column per `SimStats` value,
/// with each per-class value split into `<name>_<class>` columns.
pub fn epoch_csv(t: &Telemetry) -> String {
    let mut out = String::new();
    EpochSnapshot::write_csv_header(&mut out);
    out.push('\n');
    for s in t.snapshots() {
        s.write_csv_row(&mut out);
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
    // What the epochs sum to: the run's end-of-run statistics.
    let _ = writeln!(out, "  epochs: {}", t.snapshots().len());
    for class in TrafficClass::ALL {
        let bytes = t.totals.traffic.class_total(class);
        if bytes > 0 {
            let _ = writeln!(out, "    {:<10} {} B", class.label(), bytes);
        }
    }
    let _ = writeln!(out, "  dram requests: {}", t.totals.dram_requests);
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
    use gpu_types::{SimStats, StatValue};

    fn cfg() -> TelemetryConfig {
        TelemetryConfig { epoch_cycles: 100 }
    }

    /// A short run: 128 B of data read and one DRAM request before cycle
    /// 100, handed over at cycle 250, where the run ends.
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
        p.record(Hook::DramLatency { cycles: 35 });
        let mut totals = SimStats {
            dram_requests: 1,
            ..SimStats::default()
        };
        totals.traffic.record(TrafficClass::Data, 128, false);
        p.close_epochs(250, &totals);
        p.emit(
            250,
            Event::KernelEnd {
                kernel: "k0".into(),
                cycles: 250,
            },
        );
        p.end_run(&SimStats {
            cycles: 250,
            ..totals
        });
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
        assert!(s.contains("epochs: 3"));
        assert!(s.contains("dram requests: 1"));
        assert!(s.contains("dram_latency"));
        assert!(s.contains("data       128 B"));
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
        assert!(header.starts_with("index,start_cycle,end_cycle,cycles,instructions,accesses,"));
        assert!(header.contains(
            ",ctr_hits,ctr_misses,ctr_victims,ctr_victim_uses,mac_hits,mac_misses,bmt_hits,bmt_misses,bmt_walks,bmt_depth_sum,"
        ));
        assert!(header.contains(
            ",read_data,read_counter,read_mac,read_bmt,read_fixup,write_data,write_counter,write_mac,write_bmt,write_fixup,"
        ));
        assert!(header.ends_with(",link_bytes_to_gpu,link_bytes_to_cpu"));
        let cols: Vec<&str> = header.split(',').collect();
        // Same epochs as the JSONL document: 0..100, 100..200, 200..250.
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.split(',').count(), cols.len(), "ragged row: {row}");
        }
        // 128 B of data-class read traffic lands in the first epoch.
        let read_data = cols.iter().position(|&c| c == "read_data").unwrap();
        let cell = |row: &str| row.split(',').nth(read_data).unwrap().to_string();
        assert_eq!(cell(rows[0]), "128");
        assert_eq!(cell(rows[1]), "0");
        assert!(rows[0].starts_with("0,0,99,100,"));
        assert!(rows[2].starts_with("2,200,250,50,"));
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

    #[test]
    fn epoch_jsonl_keys_and_csv_columns_follow_the_declaration() {
        // Both writers walk `SimStats::visit`: a JSON member per value, and
        // a CSV column per count or one per class of a per-class value.
        let (mut json_keys, mut columns) = (vec![], vec![]);
        SimStats::default().visit(|name, value| {
            json_keys.push(name.to_string());
            match value {
                StatValue::Count(_) => columns.push(name.to_string()),
                StatValue::PerClass(_) => columns
                    .extend(TrafficClass::ALL.map(|class| format!("{name}_{}", class.label()))),
            }
        });
        let identity = ["index", "start_cycle", "end_cycle"].map(String::from);

        let doc = populated_doc();
        let line = doc
            .lines()
            .find(|l| l.contains("\"type\":\"epoch\""))
            .unwrap();
        let expected: Vec<String> = ["type".to_string()]
            .into_iter()
            .chain(identity.clone())
            .chain(json_keys)
            .collect();
        assert_eq!(top_level_keys(line), expected);

        let csv = populated().with(|t| epoch_csv(t)).unwrap();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let expected: Vec<String> = identity.into_iter().chain(columns).collect();
        assert_eq!(header, expected);
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
        // No snapshots: the export is the header line alone.
        let csv = epoch_csv(&Telemetry::new(cfg()));
        assert_eq!(documented, csv.trim_end());
    }
}
