//! Hot-path microbenches for the profile-guided optimizations: single-block
//! AES-128 across all three implementations (per-byte reference, T-tables,
//! AES-NI) and the simulator issue loop on two scheduling extremes.
//!
//! The AES-NI group is skipped with a notice when the host CPU lacks the
//! AES extension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_mem_sim::{ContextTrace, DesignPoint, Simulator};
use gpu_types::GpuConfig;
use shm_crypto::aes::{aesni_available, reference, Aes128};

fn bench_aes_single_block(c: &mut Criterion) {
    let key = [0x42u8; 16];
    let pt = [0x5au8; 16];
    let aes = Aes128::new(key);
    let rk = reference::expand(key);

    let mut group = c.benchmark_group("aes_single_block");
    group.bench_function(BenchmarkId::from_parameter("reference"), |b| {
        b.iter(|| std::hint::black_box(reference::encrypt_block(&rk, pt)))
    });
    group.bench_function(BenchmarkId::from_parameter("ttable"), |b| {
        b.iter(|| std::hint::black_box(aes.encrypt_block_ttable(pt)))
    });
    if aesni_available() {
        group.bench_function(BenchmarkId::from_parameter("aesni"), |b| {
            b.iter(|| std::hint::black_box(aes.encrypt_block_aesni(pt).expect("aesni available")))
        });
    } else {
        println!("aes_single_block/aesni: skipped (host CPU lacks AES-NI)");
    }
    group.finish();

    // Sanity alongside the timings: all available paths agree.
    let want = reference::encrypt_block(&rk, pt);
    assert_eq!(aes.encrypt_block_ttable(pt), want);
    if let Some(hw) = aes.encrypt_block_aesni(pt) {
        assert_eq!(hw, want);
    }
}

/// A streaming-read kernel confined to one warp: the scheduler's next pick
/// is always the same SM, and every event still pays one heap push/pop.
fn single_warp_trace(n: u64) -> ContextTrace {
    use gpu_types::{AccessKind, MemEvent, PhysAddr};
    let events: Vec<MemEvent> = (0..n)
        .map(|i| MemEvent::global(PhysAddr::new(i * 32), AccessKind::Read))
        .collect();
    let mut trace = ContextTrace::new("single-warp-stream");
    trace
        .kernels
        .push(gpu_mem_sim::KernelTrace::new("stream", events));
    trace
}

fn bench_issue_loop(c: &mut Criterion) {
    let cfg = GpuConfig::default();
    let sim = Simulator::new(&cfg, DesignPoint::Shm);
    // Two scheduling extremes: 60 interleaved warps and a single warp.
    let traces = [
        ("interleaved", ContextTrace::streaming_read_demo(16_384)),
        ("single_warp", single_warp_trace(16_384)),
    ];

    let mut group = c.benchmark_group("issue_loop");
    group.sample_size(10);
    for (shape, trace) in &traces {
        group.bench_function(BenchmarkId::from_parameter(shape), |b| {
            b.iter(|| std::hint::black_box(sim.run(trace).cycles))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_aes_single_block, bench_issue_loop);
criterion_main!(benches);
