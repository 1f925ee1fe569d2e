//! Parsers for the text the benchmarked programs print: `repro` figure
//! tables, `shm sweep` design tables and the `shm trace gen` summary line.

/// One `== Fig. N: ... ==` table of `repro` output.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    pub number: u32,
    pub header: Vec<String>,
    pub rows: Vec<(String, Vec<f64>)>,
    pub mean: Vec<f64>,
}

impl Figure {
    fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// The MEAN row's value in column `name`.
    pub fn mean_of(&self, name: &str) -> Option<f64> {
        self.column(name).map(|c| self.mean[c])
    }
}

/// Every figure table in `repro` output, in print order.  Each runs from
/// its `benchmark` header line to its MEAN row; lines after the MEAN row
/// (Fig. 14's class breakdown, Fig. 16's gain line) are not part of it.
pub fn figures(text: &str) -> Result<Vec<Figure>, String> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(title) = line
            .strip_prefix("== Fig. ")
            .and_then(|t| t.strip_suffix(" =="))
        else {
            continue;
        };
        let number = title
            .split(':')
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("bad figure title {line:?}"))?;
        let header_line = lines.next().unwrap_or_default();
        let mut header = header_line.split_whitespace();
        if header.next() != Some("benchmark") {
            return Err(format!("Fig. {number}: bad header {header_line:?}"));
        }
        let header: Vec<String> = header.map(String::from).collect();
        let mut rows = Vec::new();
        let mean = loop {
            let line = lines
                .next()
                .ok_or_else(|| format!("Fig. {number}: no MEAN row"))?;
            let mut tokens = line.split_whitespace();
            let name = tokens.next().unwrap_or_default().to_string();
            let values = tokens
                .map(|t| t.parse::<f64>())
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|e| format!("Fig. {number}: bad row {line:?}: {e}"))?;
            if values.len() != header.len() {
                return Err(format!(
                    "Fig. {number}: row {line:?} has {} values",
                    values.len()
                ));
            }
            if name == "MEAN" {
                break values;
            }
            rows.push((name, values));
        };
        out.push(Figure {
            number,
            header,
            rows,
            mean,
        });
    }
    Ok(out)
}

/// One design row of an `shm sweep` table.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    pub design: String,
    pub norm_ipc: f64,
    pub cycles: u64,
    pub metadata_bytes: u64,
    /// Metadata bytes over data bytes (the table prints it in percent).
    pub overhead: f64,
    pub epi: f64,
}

/// One design table of `shm sweep` output; `--pools` sweeps print one per
/// placement policy, each followed by that policy's pool-counter line.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepTable {
    pub policy: Option<String>,
    pub rows: Vec<SweepRow>,
    /// migrations, spills, cpu accesses, capacity events, link bytes to
    /// the GPU, link bytes to the CPU.
    pub pool_counters: Option<Vec<u64>>,
}

/// Every design table in `shm sweep` output.
pub fn sweep_tables(text: &str) -> Result<Vec<SweepTable>, String> {
    let mut tables: Vec<SweepTable> = Vec::new();
    let mut policy = None;
    let mut in_rows = false;
    for line in text.lines() {
        if let Some(p) = line
            .strip_prefix("== pools: ")
            .and_then(|p| p.strip_suffix(" =="))
        {
            policy = Some(p.to_string());
        } else if line.starts_with("design") {
            tables.push(SweepTable {
                policy: policy.take(),
                rows: Vec::new(),
                pool_counters: None,
            });
            in_rows = true;
        } else if line.starts_with("pool counters") {
            let table = tables.last_mut().ok_or("pool counters before any table")?;
            table.pool_counters = Some(
                line.split_whitespace()
                    .filter_map(|t| t.parse::<u64>().ok())
                    .collect(),
            );
            in_rows = false;
        } else if in_rows && !line.trim().is_empty() {
            let row = sweep_row(line).ok_or_else(|| format!("bad sweep row {line:?}"))?;
            tables
                .last_mut()
                .expect("in_rows implies a table")
                .rows
                .push(row);
        } else {
            in_rows = false;
        }
    }
    Ok(tables)
}

fn sweep_row(line: &str) -> Option<SweepRow> {
    let t: Vec<&str> = line.split_whitespace().collect();
    let [design, ipc, cycles, meta, overhead, epi] = t.as_slice() else {
        return None;
    };
    Some(SweepRow {
        design: design.to_string(),
        norm_ipc: ipc.parse().ok()?,
        cycles: cycles.parse().ok()?,
        metadata_bytes: meta.parse().ok()?,
        overhead: overhead.strip_suffix('%')?.parse::<f64>().ok()? / 100.0,
        epi: epi.parse().ok()?,
    })
}

/// The event count of `shm trace gen`'s `wrote F (K kernels, N events)`.
pub fn trace_gen_events(text: &str) -> Option<u64> {
    let (_, tail) = text.rsplit_once(" kernels, ")?;
    tail.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `repro all --scale 0.02 --jobs 1` output of the seed commit.
    const REPRO_ALL: &str = include_str!("../fixtures/repro_all_scale0.02.txt");

    #[test]
    fn repro_fixture_has_every_figure_with_sixteen_rows() {
        let figs = figures(REPRO_ALL).expect("fixture parses");
        let numbers: Vec<u32> = figs.iter().map(|f| f.number).collect();
        assert_eq!(numbers, [5, 10, 11, 12, 13, 14, 15, 16]);
        for f in &figs {
            assert_eq!(f.rows.len(), 16, "Fig. {}", f.number);
            assert_eq!(f.rows[0].0, "atax");
            assert_eq!(f.mean.len(), f.header.len());
        }
        let fig12 = &figs[3];
        assert_eq!(
            fig12.header,
            ["Naive", "Common_ctr", "PSSM", "SHM", "SHM_upper_bound"]
        );
        assert!(fig12.mean_of("SHM").is_some_and(|v| v > 0.5 && v <= 1.0));
        assert_eq!(fig12.mean_of("nonesuch"), None);
    }

    #[test]
    fn truncated_figure_is_an_error() {
        let cut = REPRO_ALL
            .find("MEAN")
            .map(|at| &REPRO_ALL[..at])
            .expect("fixture has a MEAN row");
        assert!(figures(cut).is_err());
        let bad = "== Fig. 12: normalized IPC ==\nbenchmark  Naive  SHM\natax 0.5\nMEAN 0.5 0.9\n";
        assert!(figures(bad).is_err(), "a short row is rejected");
    }

    #[test]
    fn sweep_tables_with_pools() {
        let text = "== pools: gpu-only ==\n\
            design            norm IPC      cycles    metadata B  overhead      epi\n\
            Baseline            1.0000      435730             0     0.00%    1.000\n\
            Naive               0.4192     1039519     123499904  1503.64%    3.992\n\
            pool counters (SHM row): migrations 0  spills 0  cpu accesses 102362  \
            capacity events 102362  link to-gpu 3275584 B  to-cpu 0 B\n\n\
            == pools: static-split ==\n\
            design            norm IPC      cycles    metadata B  overhead      epi\n\
            Baseline            1.0000      435730             0     0.00%    1.000\n";
        let tables = sweep_tables(text).expect("parses");
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].policy.as_deref(), Some("gpu-only"));
        assert_eq!(tables[0].rows[1].cycles, 1_039_519);
        assert!((tables[0].rows[1].overhead - 15.0364).abs() < 1e-9);
        assert_eq!(
            tables[0].pool_counters.as_deref(),
            Some(&[0, 0, 102_362, 102_362, 3_275_584, 0][..])
        );
        assert_eq!(tables[1].rows.len(), 1);
        assert_eq!(tables[1].pool_counters, None);
        assert!(sweep_tables("design  norm IPC\nBaseline 1.0 x 0 0% 1\n").is_err());
    }

    #[test]
    fn trace_gen_summary() {
        let line = "wrote /w/in.trace (2 kernels, 1199994 events)\n";
        assert_eq!(trace_gen_events(line), Some(1_199_994));
        assert_eq!(trace_gen_events("wrote nothing"), None);
    }
}
