//! Fig. 5 bench: oracle classification of streaming / read-only access
//! fractions across the benchmark suite.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_types::GpuConfig;
use shm::OracleProfile;
use shm_workloads::BenchmarkProfile;

fn bench_fig5(c: &mut Criterion) {
    let map = GpuConfig::default().partition_map();
    let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("profile exists");
    profile.events_per_kernel = 20_000;
    let trace = profile.generate(42);
    let events: Vec<_> = trace.all_events().cloned().collect();

    c.bench_function("fig5_oracle_profiling", |b| {
        b.iter(|| {
            let oracle = OracleProfile::from_trace(&events, map);
            std::hint::black_box((
                oracle.streaming_fraction(&events, map),
                oracle.read_only_fraction(&events, map),
            ))
        })
    });

    println!("\nfig5 fractions (streaming, read-only):");
    // Oracle profiling of each suite benchmark is independent — fan the
    // suite out on the sim-exec pool.
    let suite = BenchmarkProfile::suite();
    let rows = sim_exec::Executor::from_env().map(&suite, |_, p| {
        let mut p = p.clone();
        p.events_per_kernel = 8_000;
        let t = p.generate(42);
        let evs: Vec<_> = t.all_events().cloned().collect();
        let o = OracleProfile::from_trace(&evs, map);
        (
            p.name,
            o.streaming_fraction(&evs, map),
            o.read_only_fraction(&evs, map),
        )
    });
    for row in rows {
        let (name, st, ro) = row.expect("fig5 oracle run");
        println!("  {name:<16} {st:.3}  {ro:.3}");
    }
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
