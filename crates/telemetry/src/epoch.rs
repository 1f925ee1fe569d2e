//! Periodic per-epoch metric snapshots.
//!
//! An epoch is a span of simulated cycles and what the run's [`SimStats`]
//! counted in it.  At the first access issued at or past each epoch
//! boundary the simulator hands the probe its running totals; the epoch
//! that boundary closes is the difference from the totals at its start.
//! The run's end-of-run statistics close the last epoch, so the epochs
//! tile `[0, cycles]` and every value sums over them to the run's own,
//! by construction.

use gpu_types::{SimStats, StatValue, TrafficClass};
use std::fmt::Write as _;

/// One epoch: its index, the cycles it covers and what the run counted
/// in them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochSnapshot {
    /// Zero-based epoch number.
    pub index: u64,
    /// First cycle of the epoch (inclusive).
    pub start_cycle: u64,
    /// Last cycle of the epoch (inclusive): the next epoch's start less
    /// one, or the run's `cycles` for the last epoch.
    pub end_cycle: u64,
    /// How much each of the run's statistics grew during the epoch; its
    /// `cycles` is the epoch's share of the run's cycle count.
    pub stats: SimStats,
}

impl EpochSnapshot {
    /// Appends this snapshot as one JSON object line (no trailing newline):
    /// the identity members, then one member per [`SimStats`] value.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"type\":\"epoch\",\"index\":{},\"start_cycle\":{},\"end_cycle\":{},",
            self.index, self.start_cycle, self.end_cycle
        );
        self.stats.write_json_members(out);
        out.push('}');
    }

    /// Appends the CSV header line (no trailing newline): the identity
    /// columns, then one column per [`SimStats`] value, a per-class value
    /// split into `<name>_<class>` columns in `TrafficClass::ALL` order.
    pub(crate) fn write_csv_header(out: &mut String) {
        out.push_str("index,start_cycle,end_cycle");
        SimStats::default().visit(|name, value| match value {
            StatValue::Count(_) => {
                let _ = write!(out, ",{name}");
            }
            StatValue::PerClass(_) => {
                for class in TrafficClass::ALL {
                    let _ = write!(out, ",{name}_{}", class.label());
                }
            }
        });
    }

    /// Appends this snapshot as one CSV row (no trailing newline) under
    /// [`EpochSnapshot::write_csv_header`].
    pub(crate) fn write_csv_row(&self, out: &mut String) {
        let _ = write!(
            out,
            "{},{},{}",
            self.index, self.start_cycle, self.end_cycle
        );
        self.stats.visit(|_, value| match value {
            StatValue::Count(v) => {
                let _ = write!(out, ",{v}");
            }
            StatValue::PerClass(values) => {
                for v in values {
                    let _ = write!(out, ",{v}");
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TelemetryConfig};

    /// Running totals with `bytes` of data read and `n` instructions.
    fn totals(bytes: u64, n: u64) -> SimStats {
        let mut s = SimStats {
            instructions: n,
            ..SimStats::default()
        };
        s.traffic.record(TrafficClass::Data, bytes, false);
        s
    }

    #[test]
    fn rolls_epochs_on_boundary() {
        let mut t = Telemetry::new(TelemetryConfig { epoch_cycles: 100 });
        assert_eq!(t.close_epochs(5, &totals(0, 0)), 100);
        assert_eq!(t.close_epochs(150, &totals(64, 1)), 200);
        // Jumps two boundaries: the second epoch takes the activity, the
        // third is empty.
        assert_eq!(t.close_epochs(420, &totals(96, 2)), 500);
        t.end_run(&SimStats {
            cycles: 430,
            ..totals(96, 3)
        });
        let snaps = t.snapshots();
        // Epochs 0..=4 cover cycles 0..=430.
        assert_eq!(snaps.len(), 5);
        assert_eq!(snaps[0].stats.traffic.read[TrafficClass::Data as usize], 64);
        assert_eq!(snaps[1].stats.traffic.read[TrafficClass::Data as usize], 32);
        assert_eq!(
            snaps[2].stats,
            SimStats {
                cycles: 100,
                ..SimStats::default()
            }
        );
        assert_eq!(snaps[1].start_cycle, 100);
        assert_eq!(snaps[3].end_cycle, 399);
        assert_eq!((snaps[4].start_cycle, snaps[4].end_cycle), (400, 430));
        assert_eq!(snaps[4].stats.instructions, 1);
        assert_eq!(snaps[4].stats.cycles, 30);
        assert!(snaps.iter().enumerate().all(|(i, s)| s.index == i as u64));
    }

    #[test]
    fn late_arrivals_do_not_roll_back() {
        let mut t = Telemetry::new(TelemetryConfig { epoch_cycles: 10 });
        assert_eq!(t.close_epochs(25, &totals(0, 0)), 30);
        // An earlier cycle closes nothing and keeps the open epoch.
        assert_eq!(t.close_epochs(3, &totals(0, 7)), 30);
        t.end_run(&SimStats {
            cycles: 25,
            ..totals(0, 7)
        });
        let snaps = t.snapshots();
        assert_eq!(snaps.last().unwrap().stats.instructions, 7);
        assert_eq!(snaps.last().unwrap().index, 2);
    }

    #[test]
    fn totals_survive_epoch_rolling() {
        let mut t = Telemetry::new(TelemetryConfig { epoch_cycles: 7 });
        let mut running = SimStats::default();
        for i in 0..500u64 {
            t.close_epochs(i, &running);
            let class = TrafficClass::ALL[(i % 5) as usize];
            running.traffic.record(class, (i % 97) + 1, i % 3 == 0);
            running.accesses += 1;
            running.lat_max = running.lat_max.max(i % 61);
        }
        running.cycles = 500;
        t.end_run(&running);
        let mut summed = SimStats::default();
        for s in t.snapshots() {
            summed.traffic += s.stats.traffic;
            summed.accesses += s.stats.accesses;
            summed.lat_max += s.stats.lat_max;
            summed.cycles += s.stats.cycles;
        }
        assert_eq!(summed, running);
        assert!(t.snapshots().len() > 2);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut t = Telemetry::new(TelemetryConfig { epoch_cycles: 10 });
        t.close_epochs(4, &totals(0, 0));
        let end = SimStats {
            cycles: 4,
            ..totals(32, 0)
        };
        t.end_run(&end);
        t.end_run(&end);
        t.finalize();
        assert_eq!(t.snapshots().len(), 1);
        assert_eq!(t.snapshots()[0].stats, end);
    }

    #[test]
    fn json_shape() {
        let mut s = EpochSnapshot {
            index: 1,
            start_cycle: 100,
            end_cycle: 199,
            ..Default::default()
        };
        s.stats.instructions = 3;
        s.stats.traffic.record(TrafficClass::Bmt, 64, false);
        let mut out = String::new();
        s.write_json(&mut out);
        assert!(out.starts_with(
            "{\"type\":\"epoch\",\"index\":1,\"start_cycle\":100,\"end_cycle\":199,\"cycles\":0,"
        ));
        assert!(out.contains("\"read\":[0,0,0,64,0],\"write\":[0,0,0,0,0]"));
        assert!(out.contains("\"instructions\":3"));
        assert!(out.ends_with("\"link_bytes_to_cpu\":0}"));
    }
}
