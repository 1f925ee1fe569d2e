//! Stress and invariant tests for the full simulator: arbitrary access
//! patterns must never panic, break conservation, or produce unbounded
//! metadata traffic under any design.

use gpu_mem_sim::{ContextTrace, DesignPoint, KernelTrace, Simulator};
use gpu_types::{AccessKind, GpuConfig, MemEvent, MemorySpace, PhysAddr, SplitMix64, Warp};

/// Deterministic pseudo-random trace with a controllable mix.
fn random_trace(seed: u64, n: u64, footprint: u64, write_frac: f64) -> ContextTrace {
    let mut rng = SplitMix64::new(seed);
    let spaces = [
        MemorySpace::Global,
        MemorySpace::Local,
        MemorySpace::Constant,
        MemorySpace::Texture,
    ];
    let events: Vec<MemEvent> = (0..n)
        .map(|_| {
            let is_write = rng.chance(write_frac);
            MemEvent {
                addr: PhysAddr::new(rng.next_below(footprint / 32) * 32),
                kind: if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                // Writes stay in global/local; RO spaces are never written.
                space: if is_write {
                    spaces[rng.next_below(2) as usize]
                } else {
                    spaces[rng.next_below(4) as usize]
                },
                warp: Warp(rng.next_below(60) as u32),
                think_cycles: rng.next_below(8) as u32,
            }
        })
        .collect();
    let mut t = ContextTrace::new(format!("fuzz-{seed}"));
    t.readonly_init = vec![(PhysAddr::new(0), footprint / 4)];
    t.kernels.push(KernelTrace::new("fuzz", events));
    t
}

#[test]
fn every_design_survives_adversarial_random_traces() {
    let cfg = GpuConfig::default();
    for seed in 1..=5u64 {
        let trace = random_trace(seed, 20_000, 8 << 20, 0.3);
        for design in DesignPoint::ALL {
            let stats = Simulator::new(&cfg, design).run(&trace);
            assert!(stats.cycles > 0, "{} seed {seed}", design.name());
            assert_eq!(
                stats.instructions,
                trace.instructions(),
                "{} seed {seed} lost instructions",
                design.name()
            );
        }
    }
}

#[test]
fn metadata_traffic_is_bounded_by_structure() {
    // Even under pure random writes — the worst case — metadata can cost at
    // most a small constant factor of data: per 32 B sector, bounded
    // counter + MAC + BMT sectors move.
    let cfg = GpuConfig::default();
    let trace = random_trace(99, 40_000, 16 << 20, 1.0);
    for design in DesignPoint::ALL {
        let stats = Simulator::new(&cfg, design).run(&trace);
        let data = stats.traffic.data_bytes().max(1);
        let meta = stats.traffic.metadata_bytes();
        let factor = meta as f64 / data as f64;
        let cap = if !design.sectored_metadata() {
            // Naive moves whole 128 B counter+MAC lines per 32 B sector and
            // fetches + dirties a multi-level BMT path per write.
            40.0
        } else {
            8.0
        };
        assert!(
            factor < cap,
            "{}: metadata {factor:.2}x data exceeds structural bound {cap}",
            design.name()
        );
    }
}

#[test]
fn protection_never_speeds_a_run_up_materially() {
    let cfg = GpuConfig::default();
    for seed in [3u64, 17] {
        let trace = random_trace(seed, 20_000, 8 << 20, 0.2);
        let base = Simulator::new(&cfg, DesignPoint::Unprotected).run(&trace);
        for design in DesignPoint::ALL {
            let stats = Simulator::new(&cfg, design).run(&trace);
            assert!(
                stats.cycles as f64 >= base.cycles as f64 * 0.98,
                "{} finished faster than no protection ({} vs {})",
                design.name(),
                stats.cycles,
                base.cycles
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = GpuConfig::default();
    let trace = random_trace(7, 10_000, 4 << 20, 0.25);
    for design in [DesignPoint::Shm, DesignPoint::Naive, DesignPoint::ShmVL2] {
        let a = Simulator::new(&cfg, design).run(&trace);
        let b = Simulator::new(&cfg, design).run(&trace);
        assert_eq!(a, b, "{} is nondeterministic", design.name());
    }
}

#[test]
fn geometry_variations_do_not_break_anything() {
    // Different partition counts, L2 sizes and MLP settings must all work.
    let trace = random_trace(21, 8_000, 4 << 20, 0.3);
    for (parts, l2_kb, mlp) in [(4u16, 64u64, 8u32), (8, 128, 32), (16, 256, 64)] {
        let cfg = GpuConfig {
            num_partitions: parts,
            l2_bank_bytes: l2_kb * 1024,
            sm_max_outstanding: mlp,
            ..GpuConfig::default()
        };
        for design in [DesignPoint::Pssm, DesignPoint::Shm] {
            let stats = Simulator::new(&cfg, design).run(&trace);
            assert!(stats.cycles > 0, "{parts} partitions, {l2_kb} KB L2");
            assert_eq!(stats.instructions, trace.instructions());
        }
    }
}

#[test]
fn empty_and_tiny_traces_are_handled() {
    let cfg = GpuConfig::default();
    let empty = ContextTrace::new("empty");
    for design in DesignPoint::ALL {
        let stats = Simulator::new(&cfg, design).run(&empty);
        assert_eq!(stats.instructions, 0, "{}", design.name());
    }
    let one = {
        let mut t = ContextTrace::new("one");
        t.kernels.push(KernelTrace::new(
            "k",
            vec![MemEvent::global(PhysAddr::new(0), AccessKind::Read)],
        ));
        t
    };
    for design in DesignPoint::ALL {
        let stats = Simulator::new(&cfg, design).run(&one);
        assert_eq!(stats.instructions, 1, "{}", design.name());
        assert!(stats.cycles > 0);
    }
}

#[test]
fn longer_traces_cost_proportionally_more() {
    let cfg = GpuConfig::default();
    let short = random_trace(5, 5_000, 8 << 20, 0.2);
    let long = random_trace(5, 20_000, 8 << 20, 0.2);
    for design in [DesignPoint::Unprotected, DesignPoint::Shm] {
        let s = Simulator::new(&cfg, design).run(&short);
        let l = Simulator::new(&cfg, design).run(&long);
        let ratio = l.cycles as f64 / s.cycles as f64;
        assert!(
            (2.0..10.0).contains(&ratio),
            "{}: 4x work changed cycles by {ratio:.2}x",
            design.name()
        );
    }
}
