//! End-to-end telemetry invariants over real simulator runs.
//!
//! The telemetry subsystem promises *exact* accounting: every DRAM byte
//! and every pool counter tick lands in exactly one epoch snapshot, the
//! latency histogram counts every completed request, and the event-kind
//! totals are exact even though the event log itself is sampled.

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, TrafficClass};
use proptest::prelude::*;
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_telemetry::{Hook, Probe, Telemetry, TelemetryConfig};
use shm_workloads::BenchmarkProfile;

fn probed_run(design: DesignPoint, events: u64) -> (gpu_types::SimStats, Probe) {
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

#[test]
fn epoch_snapshots_sum_to_simstats_traffic() {
    let (stats, probe) = probed_run(DesignPoint::Shm, 20_000);
    let telemetry_total = probe.with(|t| t.total_traffic()).expect("enabled");
    for class in TrafficClass::ALL {
        assert_eq!(
            telemetry_total.class_total(class),
            stats.traffic.class_total(class),
            "epoch sums diverge from SimStats for {}",
            class.label()
        );
    }
    let epochs = probe.with(|t| t.snapshots().len()).expect("enabled");
    assert!(epochs >= 2, "expected >=2 epochs, got {epochs}");
}

/// A kv-cache-growth run under `policy` whose 32 MiB footprint overflows
/// a 1 MiB GPU pool: its `SimStats` and, summed over the epochs, its six
/// pool columns (migrations, spills, cpu accesses, capacity events, link
/// to-gpu, to-cpu).
fn pressured_pool_run(policy: PlacementPolicy) -> (gpu_types::SimStats, [u64; 6]) {
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
    probe.finalize(0);
    let sums = probe
        .with(|t| {
            t.snapshots().iter().fold([0u64; 6], |acc, s| {
                [
                    acc[0] + s.pool_migrations,
                    acc[1] + s.pool_spills,
                    acc[2] + s.pool_cpu_accesses,
                    acc[3] + s.pool_capacity_events,
                    acc[4] + s.link_bytes_to_gpu,
                    acc[5] + s.link_bytes_to_cpu,
                ]
            })
        })
        .expect("enabled");
    (stats, sums)
}

/// Each of the six pool columns, summed over the epochs, equals its
/// `SimStats` counter: on a hot-page-migrate run that migrates and spills
/// pages (a migrating access moves its page, not its sector, so no sector
/// bytes of its own reach the link columns), and on a gpu-only run under
/// capacity pressure.
#[test]
fn pool_epoch_columns_sum_to_simstats_pool_counters() {
    let (migrate, migrate_sums) = pressured_pool_run(PlacementPolicy::HotPageMigrate);
    assert!(migrate.pool_migrations > 0, "no page migrated");
    assert!(migrate.pool_spills > 0, "no page spilled");
    let (gpu_only, gpu_only_sums) = pressured_pool_run(PlacementPolicy::GpuOnly);
    assert!(gpu_only.pool_capacity_events > 0, "no capacity pressure");
    for (stats, sums) in [(migrate, migrate_sums), (gpu_only, gpu_only_sums)] {
        assert_eq!(
            sums,
            [
                stats.pool_migrations,
                stats.pool_spills,
                stats.pool_cpu_accesses,
                stats.pool_capacity_events,
                stats.link_bytes_to_gpu,
                stats.link_bytes_to_cpu,
            ],
            "epoch pool columns (migrations, spills, cpu accesses, capacity events, \
             link to-gpu, to-cpu) diverge from SimStats"
        );
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
        let (hist_count, telem_requests) = probe
            .with(|t| (t.dram_latency.count(), t.dram_requests()))
            .expect("enabled");
        assert_eq!(
            hist_count,
            stats.dram_requests,
            "{}: histogram missed requests",
            design.name()
        );
        assert_eq!(telem_requests, stats.dram_requests);
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
    probe.finalize(0);
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
    assert_eq!(plain.cycles, probed.cycles);
    assert_eq!(plain.traffic, probed.traffic);
    assert_eq!(plain.dram_requests, probed.dram_requests);
}

proptest! {
    /// Property: however traffic is scattered across cycles and epoch
    /// lengths, the per-class epoch sums equal the recorded totals exactly.
    #[test]
    fn epoch_sums_equal_totals(
        epoch_cycles in 1u64..5_000,
        n in 1usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let mut t = Telemetry::new(TelemetryConfig { epoch_cycles });
        let mut expected = gpu_types::TrafficBytes::default();
        let mut x = seed | 1;
        let mut cycle = 0u64;
        for i in 0..n {
            // SplitMix-ish scramble for cycles/bytes/class.
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5);
            cycle += x % 997;
            let class = TrafficClass::ALL[(x >> 16) as usize % TrafficClass::ALL.len()];
            let bytes = 32 + (x >> 32) % 4096;
            let is_write = i % 3 == 0;
            let partition = ((x >> 48) % 12) as usize;
            t.apply(Hook::Traffic {
                cycle,
                partition,
                class,
                bytes,
                is_write,
            });
            expected.record(class, bytes, is_write);
        }
        t.finalize(cycle + 1);
        let summed = t.total_traffic();
        for class in TrafficClass::ALL {
            prop_assert_eq!(summed.class_total(class), expected.class_total(class));
        }
        // The per-partition breakdown partitions the byte totals exactly.
        let part_bytes: u64 = t
            .snapshots()
            .iter()
            .flat_map(|s| s.partitions.iter())
            .map(|p| p.read_bytes + p.write_bytes)
            .sum();
        let total: u64 = TrafficClass::ALL
            .iter()
            .map(|&c| summed.class_total(c))
            .sum();
        prop_assert_eq!(part_bytes, total);
        // Every epoch is non-overlapping and ordered.
        let snaps = t.snapshots();
        for w in snaps.windows(2) {
            prop_assert!(w[0].end_cycle < w[1].start_cycle);
        }
    }
}
