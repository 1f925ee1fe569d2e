//! The traced run: calls each layer's public functions in-process at
//! jobs = 1, wraps every call in a span, and turns spans, the simulator's
//! phase profiler and the summed `SimStats` into per-layer metrics.
//!
//! It makes one pass over the workload, in this order:
//! 1. traced: generate (`workloads`), encode/decode (`codec`), build the
//!    oracle (`shm`), then simulate every distinct job (`sim` and the
//!    layers below it) with the phase profiler on;
//! 2. untraced: generate and simulate again with profiling off, which
//!    prices the tracing and the distinct work;
//! 3. the same jobs on the `sim-exec` executor at jobs = 2 (`exec`);
//! 4. SHM with and without hot-page-migrate pools (`pool`);
//! 5. the workload's user command once as a child (`harness`), its output
//!    checked cell by cell against pass 1.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gpu_mem_sim::{read_trace, write_trace, ContextTrace, DesignPoint};
use gpu_types::{GpuConfig, SimStats, TrafficClass};
use shm::OracleProfile;
use shm_metrics::phase;
use shm_pool::{PlacementPolicy, PoolsConfig};
use sim_exec::Executor;

use crate::ctx::Ctx;
use crate::parse;
use crate::report::{ensure, Checks};
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::workload::{self, simulate, Job, Sim, Workload};

/// Least share of the profiled wall time the simulator's phases must
/// account for.
pub const MIN_PHASE_COVERAGE: f64 = 0.95;

/// What a traced run measured.
pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub spans: Tracer,
}

/// Runs the traced pass for `w`.  `events` overrides a sweep's per-kernel
/// event count; without `ctx` the harness step (5) is skipped.
pub fn per_layer(w: Workload, seed: u64, events: Option<u64>, ctx: Option<&Ctx>) -> Layers {
    let mut checks = Checks::default();
    let spans = Tracer::new();
    let inputs = w.inputs(seed, events);
    let jobs = w.jobs(inputs.len());
    let map = GpuConfig::default().partition_map();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // 1. Traced pass.
    phase::set_profiling(false);
    phase::reset_phases();
    let (traces, traced) = spans.span("pass.traced", None, || {
        phase::set_profiling(true);
        let generated: Vec<ContextTrace> = inputs
            .iter()
            .enumerate()
            .map(|(i, (p, s))| spans.span("workloads.generate", Some(i), || p.generate(*s)))
            .collect();
        phase::set_profiling(false);
        let mut traces = Vec::with_capacity(generated.len());
        let mut bytes = 0;
        for (i, t) in generated.into_iter().enumerate() {
            let mut buf = Vec::new();
            let encoded = spans.span("codec.encode", Some(i), || write_trace(&t, &mut buf));
            let decoded = spans.span("codec.decode", Some(i), || read_trace(&buf[..]));
            bytes += buf.len();
            let round_trip = match (encoded, decoded) {
                (Ok(()), Ok(back)) => {
                    let same = workload::same_trace(&t, &back);
                    ensure(same, || format!("trace {i} changed in a codec round trip"))
                }
                (e, d) => Err(format!("trace {i} codec: {:?} / {:?}", e.err(), d.err())),
            };
            checks.record(round_trip);
            traces.push(t);
        }
        m.insert("codec.bytes", bytes as f64);
        for (i, t) in traces.iter().enumerate() {
            let oracle = spans.span("shm.oracle", Some(i), || {
                OracleProfile::from_trace(t.all_events(), map)
            });
            std::hint::black_box(oracle);
        }
        phase::set_profiling(true);
        let sims: Vec<Sim> = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| spans.span("sim.job", Some(j), || simulate(&traces[job.trace], job)))
            .collect();
        phase::set_profiling(false);
        (Arc::new(traces), sims)
    });

    // 2. Untraced pass.
    let (gen_s, job_s, identical) = spans.span("pass.untraced", None, || {
        let started = Instant::now();
        let regenerated: Vec<ContextTrace> = inputs.iter().map(|(p, s)| p.generate(*s)).collect();
        let gen_s = started.elapsed().as_secs_f64();
        let mut job_s = 0.0;
        let mut identical = true;
        for (job, sim) in jobs.iter().zip(&traced) {
            let started = Instant::now();
            let again = simulate(&regenerated[job.trace], job);
            job_s += started.elapsed().as_secs_f64();
            identical &= again.stats == sim.stats;
        }
        (gen_s, job_s, identical)
    });
    checks.record(ensure(identical, || {
        "a repeated simulation gave other stats".into()
    }));

    // 3. Executor pass.
    let exec = spans.span("pass.exec", None, || {
        exec_pass(Arc::clone(&traces), jobs.clone(), w.hang_timeout())
    });
    match exec {
        Ok((results, wall_s, busy_s)) => {
            let failed = results.as_ref().map_or_else(|e| e.failed.len(), |_| 0);
            let same = results
                .as_ref()
                .is_ok_and(|r| r.iter().zip(&traced).all(|(a, b)| a.stats == b.stats));
            checks.record(ensure(same, || {
                format!("jobs = 2 results differ from jobs = 1 ({failed} job(s) failed)")
            }));
            m.insert("exec.failed_jobs", failed as f64);
            m.insert("exec.busy_s", busy_s);
            m.insert("exec.idle_frac", 1.0 - busy_s / (2.0 * wall_s));
        }
        Err(e) => {
            checks.record(Err(e));
            m.insert("exec.failed_jobs", jobs.len() as f64);
            m.insert("exec.busy_s", 0.0);
            m.insert("exec.idle_frac", 1.0);
        }
    }

    // 4. Pool overhead on the same traces.
    let pool_overhead_s = spans.span("pass.pool", None, || {
        let time = |trace: usize, pools: Option<PoolsConfig>| {
            let job = Job {
                trace,
                pools,
                design: DesignPoint::Shm,
            };
            let started = Instant::now();
            std::hint::black_box(simulate(&traces[job.trace], &job));
            started.elapsed().as_secs_f64()
        };
        let hot = Some(PoolsConfig::new(PlacementPolicy::HotPageMigrate));
        (0..traces.len())
            .map(|t| time(t, hot) - time(t, None))
            .sum::<f64>()
    });

    // 5. The user command, checked against pass 1.
    if let Some(ctx) = ctx {
        let invocation_s = spans.span("harness.invocation", None, || {
            harness(w, seed, ctx, &inputs, &traced, &mut checks)
        });
        m.insert("harness.invocation_s", invocation_s);
        m.insert("harness.redundancy_x", invocation_s / (gen_s + job_s));
    }
    m.insert("harness.distinct_work_s", gen_s + job_s);

    let job_durations = spans.durations_s("sim.job");
    let traced_job_s: f64 = job_durations.iter().sum();
    let profiled_s = spans.total_s("workloads.generate") + traced_job_s;
    let phase_s = |label: &str| {
        phase::snapshot()
            .iter()
            .find(|p| p.phase.label() == label)
            .map_or(0.0, |p| p.nanos as f64 / 1e9)
    };
    let coverage = phase::total_nanos() as f64 / 1e9 / profiled_s;
    checks.record(ensure(coverage >= MIN_PHASE_COVERAGE, || {
        format!(
            "profiler phases cover {:.1}% of the profiled time",
            coverage * 100.0
        )
    }));
    for (name, label) in [
        ("phase.access_issue_s", "access_issue"),
        ("phase.l2_s", "l2"),
        ("phase.fabric_s", "fabric"),
        ("phase.trace_gen_s", "trace_gen"),
    ] {
        m.insert(name, phase_s(label));
    }
    m.insert("phase.coverage", coverage);
    m.insert("trace.overhead_frac", traced_job_s / job_s - 1.0);
    m.insert("pool.overhead_s", pool_overhead_s);
    m.insert("workloads.gen_s", spans.total_s("workloads.generate"));
    m.insert(
        "workloads.events",
        traces.iter().map(|t| t.all_events().count()).sum::<usize>() as f64,
    );
    m.insert("codec.encode_s", spans.total_s("codec.encode"));
    m.insert("codec.decode_s", spans.total_s("codec.decode"));
    m.insert("shm.oracle_s", spans.total_s("shm.oracle"));
    m.insert("sim.jobs", jobs.len() as f64);
    m.insert("sim.job_s_p50", Summary::of(job_durations.clone()).median);
    m.insert(
        "sim.job_s_max",
        job_durations.iter().copied().fold(0.0, f64::max),
    );
    insert_stat_metrics(&mut m, &jobs, &traced);

    Layers {
        metrics: m,
        checks,
        spans,
    }
}

/// The metrics that are sums and ratios of the simulated statistics.
fn insert_stat_metrics(m: &mut BTreeMap<&'static str, f64>, jobs: &[Job], sims: &[Sim]) {
    let sum = |f: fn(&SimStats) -> u64| sims.iter().map(|s| f(&s.stats)).sum::<u64>() as f64;
    let share = |part: f64, rest: f64| {
        if part + rest > 0.0 {
            part / (part + rest)
        } else {
            0.0
        }
    };
    let class = |c: TrafficClass| {
        sims.iter()
            .map(|s| s.stats.traffic.class_total(c))
            .sum::<u64>() as f64
    };

    m.insert("sim.cycles_cyc", sum(|s| s.cycles));
    m.insert(
        "sim.lat_avg_cyc",
        sum(|s| s.lat_sum) / sum(|s| s.l2_hits + s.l2_misses).max(1.0),
    );
    m.insert(
        "sim.lat_max_cyc",
        sims.iter().map(|s| s.stats.lat_max).max().unwrap_or(0) as f64,
    );

    let shm: Vec<&Sim> = jobs
        .iter()
        .zip(sims)
        .filter(|(j, _)| j.design == DesignPoint::Shm)
        .map(|(_, s)| s)
        .collect();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    m.insert(
        "shm.ro_accuracy",
        ratio(
            shm.iter().map(|s| s.ro.correct).sum(),
            shm.iter().map(|s| s.ro.total()).sum(),
        ),
    );
    m.insert(
        "shm.stream_accuracy",
        ratio(
            shm.iter().map(|s| s.st.correct).sum(),
            shm.iter().map(|s| s.st.total()).sum(),
        ),
    );
    m.insert("shm.readonly_fast_path", sum(|s| s.readonly_fast_path));
    m.insert("shm.chunk_mac_accesses", sum(|s| s.chunk_mac_accesses));
    m.insert(
        "shm.stream_mispredictions",
        sum(|s| s.stream_mispredictions),
    );
    m.insert("shm.victim_hits", sum(|s| s.victim_hits));

    let (hits, misses) = (sum(|s| s.l2_hits), sum(|s| s.l2_misses));
    m.insert("l2.hits", hits);
    m.insert("l2.misses", misses);
    m.insert("l2.hit_rate", share(hits, misses));
    m.insert("l2.writebacks", sum(|s| s.l2_writebacks));

    for (rate, miss, hit_f, miss_f) in [
        (
            "mee.ctr_hit_rate",
            "mee.ctr_misses",
            (|s: &SimStats| s.ctr_hits) as fn(&SimStats) -> u64,
            (|s: &SimStats| s.ctr_misses) as fn(&SimStats) -> u64,
        ),
        (
            "mee.mac_hit_rate",
            "mee.mac_misses",
            |s| s.mac_hits,
            |s| s.mac_misses,
        ),
        (
            "mee.bmt_hit_rate",
            "mee.bmt_misses",
            |s| s.bmt_hits,
            |s| s.bmt_misses,
        ),
    ] {
        m.insert(rate, share(sum(hit_f), sum(miss_f)));
        m.insert(miss, sum(miss_f));
    }

    m.insert("dram.requests", sum(|s| s.dram_requests));
    m.insert("dram.data_bytes", class(TrafficClass::Data));
    m.insert("dram.counter_bytes", class(TrafficClass::Counter));
    m.insert("dram.mac_bytes", class(TrafficClass::Mac));
    m.insert("dram.bmt_bytes", class(TrafficClass::Bmt));
    m.insert("dram.fixup_bytes", class(TrafficClass::MispredictFixup));
    m.insert(
        "dram.meta_per_data",
        sum(|s| s.traffic.metadata_bytes()) / class(TrafficClass::Data).max(1.0),
    );

    m.insert("pool.migrations", sum(|s| s.pool_migrations));
    m.insert("pool.spills", sum(|s| s.pool_spills));
    m.insert("pool.cpu_accesses", sum(|s| s.pool_cpu_accesses));
    m.insert("pool.capacity_events", sum(|s| s.pool_capacity_events));
    m.insert(
        "pool.link_bytes",
        sum(|s| s.link_bytes_to_gpu + s.link_bytes_to_cpu),
    );
}

/// Executor results, wall seconds and summed job seconds.
type ExecOutcome = (Result<Vec<Sim>, sim_exec::SweepError>, f64, f64);

/// Runs `jobs` on a two-worker executor.  The sweep runs on its own thread
/// so that a hang is reported after `timeout` instead of stalling the
/// benchmark; a hung thread is left behind and ends with the process.
fn exec_pass(
    traces: Arc<Vec<ContextTrace>>,
    jobs: Vec<Job>,
    timeout: Duration,
) -> Result<ExecOutcome, String> {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let busy_ns = AtomicU64::new(0);
        let started = Instant::now();
        let results = Executor::new(2).try_map(
            &jobs,
            |_, job| format!("trace {} under {}", job.trace, job.design.name()),
            |_, job| {
                let begun = Instant::now();
                let sim = simulate(&traces[job.trace], job);
                busy_ns.fetch_add(begun.elapsed().as_nanos() as u64, Relaxed);
                sim
            },
        );
        let wall_s = started.elapsed().as_secs_f64();
        let _ = done.send((results, wall_s, busy_ns.into_inner() as f64 / 1e9));
    });
    finished.recv_timeout(timeout).map_err(|e| match e {
        mpsc::RecvTimeoutError::Timeout => {
            format!("the jobs = 2 executor did not finish within {timeout:?}")
        }
        mpsc::RecvTimeoutError::Disconnected => "the jobs = 2 executor thread panicked".into(),
    })
}

/// Runs the user command once and checks every printed cell it can against
/// the traced simulations.  Returns the invocation's wall seconds.
fn harness(
    w: Workload,
    seed: u64,
    ctx: &Ctx,
    inputs: &[(shm_workloads::BenchmarkProfile, u64)],
    sims: &[Sim],
    checks: &mut Checks,
) -> f64 {
    let timeout = w.hang_timeout();
    let trace_file = ctx.trace_file();
    let run = |cmd| {
        ctx.run(&cmd, timeout)
            .and_then(|out| ensure(out.ok(), || out.failure("harness")).map(|()| out))
    };
    if w != Workload::PaperFigures {
        if let Err(e) = run(w.setup_command(seed, &trace_file)) {
            checks.record(Err(e));
            return 0.0;
        }
    }
    let out = match run(w.command(&trace_file)) {
        Ok(out) => out,
        Err(e) => {
            checks.record(Err(e));
            return 0.0;
        }
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let checked = if w == Workload::PaperFigures {
        parse::figures(&text).and_then(|figs| {
            workload::check_figures(&figs)?;
            let per_design = DesignPoint::ALL.len();
            let mut cells = 0;
            for (b, (profile, _)) in inputs.iter().enumerate() {
                let runs: BTreeMap<&str, Sim> = DesignPoint::ALL
                    .iter()
                    .zip(&sims[b * per_design..(b + 1) * per_design])
                    .map(|(d, s)| (d.name(), s.clone()))
                    .collect();
                cells += workload::check_figure_cells(&figs, profile.name, &runs)?;
            }
            Ok(cells)
        })
    } else {
        parse::sweep_tables(&text).and_then(|tables| {
            let all: Vec<Option<&Sim>> = sims.iter().map(Some).collect();
            workload::check_sweep(w, &tables, &all)
        })
    };
    checks.record(checked.map(drop));
    out.wall_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec;

    /// A quick traced run of the stream-ro workload (4096 events per
    /// kernel), without the child harness step.
    #[test]
    fn quick_traced_stream_ro() {
        let run = per_layer(Workload::StreamRo, 7, Some(4096), None);
        assert!(run.checks.failures.is_empty(), "{:?}", run.checks.failures);
        let m = &run.metrics;
        assert!(
            m["phase.coverage"] >= MIN_PHASE_COVERAGE,
            "{}",
            m["phase.coverage"]
        );
        assert_eq!(m["sim.jobs"], 10.0);

        // Count metrics equal the statistics of direct simulator runs.
        let (profile, seed) = &Workload::StreamRo.inputs(7, Some(4096))[0];
        let trace = profile.generate(*seed);
        let direct: Vec<SimStats> = Workload::StreamRo
            .jobs(1)
            .iter()
            .map(|j| simulate(&trace, j).stats)
            .collect();
        let total = |f: fn(&SimStats) -> u64| direct.iter().map(f).sum::<u64>() as f64;
        assert_eq!(m["l2.hits"], total(|s| s.l2_hits));
        assert_eq!(m["mee.mac_misses"], total(|s| s.mac_misses));
        assert_eq!(m["dram.requests"], total(|s| s.dram_requests));
        assert_eq!(m["sim.cycles_cyc"], total(|s| s.cycles));
        assert_eq!(m["shm.chunk_mac_accesses"], total(|s| s.chunk_mac_accesses));
        assert_eq!(m["workloads.events"], trace.all_events().count() as f64);
        assert_eq!(m["pool.migrations"], 0.0);

        // Everything but the harness step's metrics is measured.
        for metric in &spec().per_layer {
            let harness_only = ["harness.invocation_s", "harness.redundancy_x"];
            assert_eq!(
                m.contains_key(metric.name.as_str()),
                !harness_only.contains(&metric.name.as_str()),
                "{}",
                metric.name
            );
        }
        assert!(run.spans.to_jsonl("stream-ro").lines().count() > 10);
    }
}
