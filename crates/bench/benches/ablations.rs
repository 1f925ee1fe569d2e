//! Ablation benches for the design choices DESIGN.md calls out:
//! tracker count, predictor sizes, chunk size (via ShmConfig), and the
//! dual-granularity-MAC on/off comparison on stream vs random traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, ShmConfig};
use shm_workloads::micro;

fn bench_ablations(c: &mut Criterion) {
    let cfg = GpuConfig::default();
    let stream = micro::pure_stream_read(12 * 16 * 4096);
    let random = micro::pure_random_read(4 << 20, 20_000, 3);

    // Tracker-count ablation.
    let mut group = c.benchmark_group("ablation_tracker_count");
    group.sample_size(10);
    for trackers in [1usize, 4, 8, 16] {
        let shm_cfg = ShmConfig {
            num_trackers: trackers,
            ..ShmConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(trackers), &shm_cfg, |b, sc| {
            b.iter(|| {
                let sim = Simulator::new(&cfg, DesignPoint::Shm).with_shm_config(sc.clone());
                std::hint::black_box(sim.run(&random).stream_mispredictions)
            })
        });
    }
    group.finish();

    // Predictor-size ablation.
    let mut group = c.benchmark_group("ablation_predictor_entries");
    group.sample_size(10);
    for entries in [256usize, 1024, 4096] {
        let shm_cfg = ShmConfig {
            streaming_predictor_entries: entries,
            readonly_predictor_entries: entries / 2,
            ..ShmConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(entries), &shm_cfg, |b, sc| {
            b.iter(|| {
                let sim = Simulator::new(&cfg, DesignPoint::Shm).with_shm_config(sc.clone());
                std::hint::black_box(sim.run(&stream).traffic.metadata_bytes())
            })
        });
    }
    group.finish();

    // Dual-MAC on/off on pure-stream and pure-random traffic.
    let mut group = c.benchmark_group("ablation_dual_mac");
    group.sample_size(10);
    for (label, trace) in [("stream", &stream), ("random", &random)] {
        for design in [DesignPoint::ShmReadOnly, DesignPoint::Shm] {
            group.bench_with_input(BenchmarkId::new(label, design.name()), &design, |b, &d| {
                b.iter(|| {
                    std::hint::black_box(
                        Simulator::new(&cfg, d).run(trace).traffic.metadata_bytes(),
                    )
                })
            });
        }
    }
    group.finish();

    // Integrity-tree arity ablation (16-ary BMT vs 8-ary counter-tree vs
    // 4-ary): deeper trees cost more walk traffic on counter misses.
    let mut group = c.benchmark_group("ablation_tree_arity");
    group.sample_size(10);
    for arity in [4u64, 8, 16] {
        let gpu_cfg = GpuConfig {
            mdc: gpu_types::MdcConfig {
                tree_arity: arity,
                ..gpu_types::MdcConfig::default()
            },
            ..GpuConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(arity), &gpu_cfg, |b, gc| {
            b.iter(|| {
                std::hint::black_box(
                    Simulator::new(gc, DesignPoint::Pssm)
                        .run(&random)
                        .traffic
                        .class_total(gpu_types::TrafficClass::Bmt),
                )
            })
        });
    }
    group.finish();

    // MAC-width ablation (PSSM's 4 B truncated MACs vs the 8 B default):
    // truncation halves MAC bandwidth but falls below the Section III-C
    // birthday bound.
    let mut group = c.benchmark_group("ablation_mac_width");
    group.sample_size(10);
    for mac_bytes in [4u64, 8] {
        let gpu_cfg = GpuConfig {
            mdc: gpu_types::MdcConfig {
                mac_bytes_per_block: mac_bytes,
                ..gpu_types::MdcConfig::default()
            },
            ..GpuConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(mac_bytes), &gpu_cfg, |b, gc| {
            b.iter(|| {
                std::hint::black_box(
                    Simulator::new(gc, DesignPoint::Pssm)
                        .run(&stream)
                        .traffic
                        .class_total(gpu_types::TrafficClass::Mac),
                )
            })
        });
    }
    group.finish();

    // The summary sweeps below are independent simulations — run them on
    // the shared sim-exec pool, one worker per available core.
    let pool = sim_exec::Executor::from_request(None);

    println!("\ntree-arity ablation (PSSM, random reads): BMT bytes");
    let arities = [4u64, 8, 16];
    let arity_stats = pool.map(&arities, |_, &arity| {
        let gpu_cfg = GpuConfig {
            mdc: gpu_types::MdcConfig {
                tree_arity: arity,
                ..gpu_types::MdcConfig::default()
            },
            ..GpuConfig::default()
        };
        Simulator::new(&gpu_cfg, DesignPoint::Pssm).run(&random)
    });
    for (arity, s) in arities.iter().zip(arity_stats) {
        let s = s.expect("arity ablation run");
        println!(
            "  arity {arity:<3} bmt={}  total_meta={}",
            s.traffic.class_total(gpu_types::TrafficClass::Bmt),
            s.traffic.metadata_bytes()
        );
    }

    println!("\nMAC-width ablation (PSSM, streaming reads): MAC bytes + security");
    let widths = [4u64, 8];
    let width_stats = pool.map(&widths, |_, &mac_bytes| {
        let gpu_cfg = GpuConfig {
            mdc: gpu_types::MdcConfig {
                mac_bytes_per_block: mac_bytes,
                ..gpu_types::MdcConfig::default()
            },
            ..GpuConfig::default()
        };
        Simulator::new(&gpu_cfg, DesignPoint::Pssm).run(&stream)
    });
    for (mac_bytes, s) in widths.iter().zip(width_stats) {
        let s = s.expect("MAC-width ablation run");
        let bits = (mac_bytes * 8) as u32;
        println!(
            "  {mac_bytes} B MAC: mac_traffic={}  birthday-resistant on 4 GB: {}",
            s.traffic.class_total(gpu_types::TrafficClass::Mac),
            shm_metadata::layout::mac_resists_birthday_attack(bits, 4 << 30)
        );
    }

    println!("\nablation summary (metadata bytes):");
    let pairs: Vec<(&str, &gpu_mem_sim::ContextTrace, DesignPoint)> =
        [("stream", &stream), ("random", &random)]
            .into_iter()
            .flat_map(|(label, trace)| {
                [DesignPoint::ShmReadOnly, DesignPoint::Shm]
                    .into_iter()
                    .map(move |design| (label, trace, design))
            })
            .collect();
    let pair_stats = pool.map(&pairs, |_, &(_, trace, design)| {
        Simulator::new(&cfg, design).run(trace)
    });
    for (&(label, _, design), s) in pairs.iter().zip(pair_stats) {
        let s = s.expect("ablation summary run");
        println!(
            "  {:<8} {:<14} metadata={}  fixup={}",
            label,
            design.name(),
            s.traffic.metadata_bytes(),
            s.traffic
                .class_total(gpu_types::TrafficClass::MispredictFixup)
        );
    }
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
