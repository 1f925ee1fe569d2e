//! End-to-end telemetry invariants over real simulator runs.
//!
//! The telemetry subsystem promises *exact* accounting: each epoch is a
//! delta of the run's `SimStats`, so every value sums over the epochs to
//! the run's own, the latency histogram counts every completed request,
//! and the event-kind totals are exact even though the event log itself
//! is sampled.

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, SimStats, StatValue, TrafficBytes, TrafficClass};
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_telemetry::{Probe, TelemetryConfig};
use shm_workloads::BenchmarkProfile;

fn probed_run(design: DesignPoint, events: u64) -> (SimStats, Probe) {
    let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("fdtd2d exists");
    profile.events_per_kernel = events;
    let trace = profile.generate(0xBEEF);
    let probe = Probe::enabled(TelemetryConfig {
        epoch_cycles: 5_000,
    });
    let stats = Simulator::new(&GpuConfig::default(), design)
        .with_probe(probe.clone())
        .run(&trace);
    (stats, probe)
}

/// Every value `SimStats::visit` reports, in declaration order.
fn values(stats: &SimStats) -> Vec<(&'static str, StatValue)> {
    let mut out = Vec::new();
    stats.visit(|name, value| out.push((name, value)));
    out
}

/// Asserts that `probe`'s epochs tile `[0, stats.cycles]` in order, each
/// but the last `epoch_cycles` long, and that, value by value, they sum to
/// `stats`.
fn assert_epochs_sum_to(stats: &SimStats, probe: &Probe, epoch_cycles: u64, run: &str) {
    probe
        .with(|t| {
            let epochs = t.snapshots();
            assert_eq!(epochs[0].start_cycle, 0, "{run}: first epoch");
            for (i, pair) in epochs.windows(2).enumerate() {
                assert_eq!(pair[1].index, i as u64 + 1, "{run}: epoch order");
                assert_eq!(
                    pair[0].end_cycle - pair[0].start_cycle + 1,
                    epoch_cycles,
                    "{run}: epoch {i} length"
                );
                assert_eq!(
                    pair[1].start_cycle,
                    pair[0].end_cycle + 1,
                    "{run}: epochs {i} and {} do not meet",
                    i + 1
                );
            }
            let last = epochs.last().expect("at least one epoch");
            assert_eq!(last.end_cycle, stats.cycles, "{run}: last epoch");
            assert!(last.end_cycle - last.start_cycle < epoch_cycles, "{run}");
            assert_eq!(
                epochs.len() as u64,
                stats.cycles / epoch_cycles + 1,
                "{run}"
            );

            let mut summed = values(&SimStats::default());
            for epoch in epochs {
                for (sum, (_, value)) in summed.iter_mut().zip(values(&epoch.stats)) {
                    sum.1 = match (sum.1, value) {
                        (StatValue::Count(a), StatValue::Count(b)) => StatValue::Count(a + b),
                        (StatValue::PerClass(a), StatValue::PerClass(b)) => {
                            StatValue::PerClass(std::array::from_fn(|i| a[i] + b[i]))
                        }
                        _ => unreachable!("visit reports one kind per name"),
                    };
                }
            }
            for (sum, run_value) in summed.iter().zip(values(stats)) {
                assert_eq!(*sum, run_value, "{run}: epochs do not sum to SimStats");
            }
        })
        .expect("enabled");
}

/// A kv-cache-growth run under `policy` whose 32 MiB footprint overflows
/// a 1 MiB GPU pool, with its probe.
fn pressured_pool_run(policy: PlacementPolicy) -> (SimStats, Probe) {
    let mut profile = BenchmarkProfile::kv_cache_growth();
    profile.events_per_kernel = 4096;
    let trace = profile.generate(0xBEEF);
    let mut pools = PoolsConfig::new(policy);
    pools.gpu_capacity = 1 << 20;
    pools.cpu_capacity = 64 << 20;
    pools.hot_touches = 2;
    let probe = Probe::enabled(TelemetryConfig {
        epoch_cycles: 5_000,
    });
    let stats = Simulator::new(&GpuConfig::default(), DesignPoint::Shm)
        .with_pools(pools)
        .with_probe(probe.clone())
        .run(&trace);
    (stats, probe)
}

/// Every epoch is a `SimStats` delta, so each value sums over the epochs
/// to the run's, the traffic split by class included, on a multi-epoch
/// SHM run.
#[test]
fn epoch_snapshots_sum_to_simstats_traffic() {
    let (stats, probe) = probed_run(DesignPoint::Shm, 20_000);
    assert_epochs_sum_to(&stats, &probe, 5_000, "SHM");
    let epochs = probe.with(|t| t.snapshots().len()).expect("enabled");
    assert!(epochs >= 2, "expected >=2 epochs, got {epochs}");
    let summed = probe
        .with(|t| {
            t.snapshots()
                .iter()
                .fold(TrafficBytes::default(), |mut acc, epoch| {
                    acc += epoch.stats.traffic;
                    acc
                })
        })
        .expect("enabled");
    for class in TrafficClass::ALL {
        assert_eq!(
            summed.class_total(class),
            stats.traffic.class_total(class),
            "epoch sums diverge from SimStats for {}",
            class.label()
        );
    }
}

/// The same holds on pressured pool runs that migrate, spill and
/// demand-page across the link: a hot-page-migrate run and a gpu-only run
/// under capacity pressure.
#[test]
fn pool_epoch_columns_sum_to_simstats_pool_counters() {
    let (migrate, probe) = pressured_pool_run(PlacementPolicy::HotPageMigrate);
    assert!(migrate.pool_migrations > 0, "no page migrated");
    assert!(migrate.pool_spills > 0, "no page spilled");
    assert_epochs_sum_to(&migrate, &probe, 5_000, "hot-page-migrate");
    let (gpu_only, probe) = pressured_pool_run(PlacementPolicy::GpuOnly);
    assert!(gpu_only.pool_capacity_events > 0, "no capacity pressure");
    assert_epochs_sum_to(&gpu_only, &probe, 5_000, "gpu-only");
}

/// However long an epoch is, the epochs sum to the run's `SimStats`: for
/// all ten designs on a three-kernel trace at epochs of one cycle, of 997
/// cycles and longer than the run.
#[test]
fn epoch_sums_equal_totals() {
    let mut profile = BenchmarkProfile::by_name("bfs").expect("bfs exists");
    profile.events_per_kernel = 1_000;
    let trace = profile.generate(0xBEEF);
    let cfg = GpuConfig::default();
    for design in DesignPoint::ALL {
        let cycles = Simulator::new(&cfg, design).run(&trace).cycles;
        for epoch_cycles in [1, 997, cycles + 1] {
            let probe = Probe::enabled(TelemetryConfig { epoch_cycles });
            let stats = Simulator::new(&cfg, design)
                .with_probe(probe.clone())
                .run(&trace);
            let run = format!("{} at {epoch_cycles}-cycle epochs", design.name());
            assert_epochs_sum_to(&stats, &probe, epoch_cycles, &run);
        }
    }
}

#[test]
fn latency_histogram_counts_every_dram_request() {
    for design in [
        DesignPoint::Unprotected,
        DesignPoint::Pssm,
        DesignPoint::Shm,
    ] {
        let (stats, probe) = probed_run(design, 12_000);
        let hist_count = probe.with(|t| t.dram_latency.count()).expect("enabled");
        assert_eq!(
            hist_count,
            stats.dram_requests,
            "{}: histogram missed requests",
            design.name()
        );
        let summary = probe.summary().expect("enabled");
        assert!(summary.contains(&format!("dram requests: {}\n", stats.dram_requests)));
        assert!(stats.dram_requests > 0);
    }
}

#[test]
fn event_totals_are_exact_despite_sampling() {
    let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("fdtd2d exists");
    profile.events_per_kernel = 20_000;
    let trace = profile.generate(0xBEEF);
    let path = std::env::temp_dir().join(format!(
        "shm-telemetry-sampling-{}.jsonl",
        std::process::id()
    ));
    let probe = Probe::enabled_streaming(
        TelemetryConfig {
            epoch_cycles: 5_000,
        },
        &path,
    )
    .expect("create trace file");
    Simulator::new(&GpuConfig::default(), DesignPoint::Shm)
        .with_probe(probe.clone())
        .run(&trace);
    probe.finalize();
    assert_eq!(probe.stream_error(), None);
    let doc = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    let logged = doc
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"event\""))
        .count() as u64;
    let (totals, sampled_out) = probe
        .with(|t| (t.kind_totals().iter().sum::<u64>(), t.sampled_out()))
        .expect("enabled");
    assert_eq!(logged + sampled_out, totals, "sampling lost events");
    let kinds = probe
        .with(|t| t.kind_totals().iter().filter(|&&n| n > 0).count())
        .expect("enabled");
    assert!(kinds >= 3, "expected >=3 event kinds, got {kinds}");
}

#[test]
fn telemetry_does_not_perturb_results() {
    let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("fdtd2d exists");
    profile.events_per_kernel = 8_000;
    let trace = profile.generate(0xBEEF);
    let cfg = GpuConfig::default();
    let plain = Simulator::new(&cfg, DesignPoint::Shm).run(&trace);
    let probed = Simulator::new(&cfg, DesignPoint::Shm)
        .with_probe(Probe::enabled(TelemetryConfig::default()))
        .run(&trace);
    assert_eq!(plain, probed);
}
