//! The end-to-end run: times the workload's user command as a child
//! process, tracing off, and checks what it printed.
//!
//! The loop is closed: one invocation at a time from this one process.
//! Each round runs the set-up and then the command.  The first round's
//! command is a discarded warm-up.  The run's seconds cover everything
//! from the start, the in-process reference runs and the warm-up
//! included: a round starts only while the previous round's duration still
//! fits in what is left, and at least [`MIN_TIMED`] rounds are timed
//! whatever the budget.  Running the set-up every round spreads its
//! samples over the run like the command's, so both see the same host
//! conditions.  Each round starts by timing the host-speed loop, and the
//! round's set-up and command times are given in normalized seconds (see
//! [`crate::host_speed`]).  Every metric reports the median of its
//! samples.

use std::collections::BTreeMap;
use std::time::Instant;

use gpu_mem_sim::{ContextTrace, DesignPoint};
use shm_workloads::BenchmarkProfile;

use crate::ctx::Ctx;
use crate::host_speed::{HostSpeed, NOMINAL_LOOP_S};
use crate::parse;
use crate::report::{digest, ensure, Checks, Report};
use crate::spec::spec;
use crate::stats::Summary;
use crate::workload::{self, simulate, Fidelity, Job, Sim, Workload};

/// Fewest timed invocations per run, however short the run.
const MIN_TIMED: usize = 3;

pub fn end_to_end(w: Workload, seed: u64, seconds: f64, ctx: &Ctx) -> Result<Report, String> {
    let started = Instant::now();
    let mut checks = Checks::default();
    let timeout = w.hang_timeout();
    let inputs = w.inputs(seed, None);
    // The traces the program is expected to simulate, built in-process.
    let traces: Vec<ContextTrace> = inputs.iter().map(|(p, s)| p.generate(*s)).collect();
    let events: u64 = traces.iter().map(|t| t.all_events().count() as u64).sum();
    let accesses_per_invocation = events * w.jobs(1).len() as u64;
    let reference_runs = ReferenceRuns::new(w, seed, &inputs, &traces);

    let trace_file = ctx.trace_file();
    let setup = w.setup_command(seed, &trace_file);
    let command = w.command(&trace_file);
    let mut first_setup: Option<(Vec<u8>, Vec<u8>)> = None;
    let mut reference = Vec::new();
    let mut host = HostSpeed::new();
    let (mut setup_s, mut wall_s, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut host_loop_s = Vec::new();
    let mut last_round_s = 0.0;
    for round in 0.. {
        let left = seconds - started.elapsed().as_secs_f64();
        if round > MIN_TIMED && last_round_s > left {
            break;
        }
        let round_started = Instant::now();
        let loop_s = host.loop_s();
        let normalize = NOMINAL_LOOP_S / loop_s;
        let out = ctx.run(&setup, timeout)?;
        let produced = std::fs::read(&trace_file).unwrap_or_default();
        let same = first_setup
            .as_ref()
            .is_none_or(|(stdout, file)| *stdout == out.stdout && *file == produced);
        let outcome = ensure(out.ok(), || out.failure("set-up"))
            .and_then(|()| ensure(same, || "set-up output differs between repetitions".into()));
        if checks.record(outcome) {
            setup_s.push(out.wall_s * normalize);
            first_setup.get_or_insert((out.stdout, produced));
        }

        let out = ctx.run(&command, timeout)?;
        last_round_s = round_started.elapsed().as_secs_f64();
        if round == 0 {
            checks.record(ensure(out.ok(), || out.failure("warm-up")));
            reference = out.stdout;
            continue;
        }
        let outcome = ensure(out.ok(), || out.failure("invocation")).and_then(|()| {
            ensure(out.stdout == reference, || {
                "stdout differs from the warm-up invocation's".into()
            })
        });
        if checks.record(outcome) {
            wall_s.push(out.wall_s * normalize);
            rss_mb.push(out.peak_rss_mb);
            host_loop_s.push(loop_s);
        }
    }
    if let (Some((stdout, file)), Some(expected)) = (&first_setup, traces.first()) {
        if w != Workload::PaperFigures {
            checks.record(check_trace_file(file, stdout, expected));
        }
    }
    if wall_s.is_empty() || setup_s.is_empty() {
        return Err(format!(
            "{}: no successful invocation: {}",
            w.name(),
            checks.failures.join("; ")
        ));
    }

    let text = String::from_utf8_lossy(&reference);
    let fidelity = match reference_runs {
        ReferenceRuns::Figures { bench, runs } => {
            let figs = parse::figures(&text)?;
            checks.record(workload::check_figures(&figs));
            checks.record(workload::check_figure_cells(&figs, bench, &runs).map(drop));
            Fidelity::of_figures(&figs)?
        }
        ReferenceRuns::Sweep { shm_row, shm } => {
            let tables = parse::sweep_tables(&text)?;
            let mut sims = vec![None; w.jobs(1).len()];
            sims[shm_row] = Some(&*shm);
            checks.record(workload::check_sweep(w, &tables, &sims).map(drop));
            Fidelity::of_sweep(&tables, &shm)?
        }
    };

    let mut metrics: BTreeMap<&str, Summary> = BTreeMap::new();
    let rates = wall_s
        .iter()
        .map(|s| accesses_per_invocation as f64 / s / 1e6)
        .collect();
    metrics.insert("sim_maccess_per_s", Summary::of(rates));
    metrics.insert("wall_s", Summary::of(wall_s));
    metrics.insert("setup_s", Summary::of(setup_s));
    metrics.insert("peak_rss_mb", Summary::of(rss_mb));
    for (name, value) in fidelity.metrics() {
        metrics.insert(name, Summary::of(vec![value]));
    }
    let mut report = Report::new(
        w,
        "end_to_end",
        &spec().end_to_end,
        metrics,
        checks,
        Some(digest(&reference)),
    )?;
    report.host_loop_s = Some(Summary::of(host_loop_s));
    Ok(report)
}

/// In-process simulations the command's output is spot-checked against,
/// run before the timed rounds so the run's seconds include them.
enum ReferenceRuns {
    /// Baseline and SHM on one suite benchmark, picked by the seed.
    Figures {
        bench: &'static str,
        runs: BTreeMap<&'static str, Sim>,
    },
    /// The first table's SHM row; its run also gives the predictor
    /// accuracies the sweep does not print.
    Sweep { shm_row: usize, shm: Box<Sim> },
}

impl ReferenceRuns {
    fn new(
        w: Workload,
        seed: u64,
        inputs: &[(BenchmarkProfile, u64)],
        traces: &[ContextTrace],
    ) -> ReferenceRuns {
        if w == Workload::PaperFigures {
            let b = (seed % traces.len() as u64) as usize;
            let runs = [DesignPoint::Unprotected, DesignPoint::Shm]
                .map(|design| {
                    let job = Job {
                        trace: b,
                        pools: None,
                        design,
                    };
                    (design.name(), simulate(&traces[b], &job))
                })
                .into();
            ReferenceRuns::Figures {
                bench: inputs[b].0.name,
                runs,
            }
        } else {
            let jobs = w.jobs(1);
            let shm_row = jobs
                .iter()
                .position(|j| j.design == DesignPoint::Shm)
                .expect("every sweep has an SHM row");
            let shm = Box::new(simulate(&traces[0], &jobs[shm_row]));
            ReferenceRuns::Sweep { shm_row, shm }
        }
    }
}

/// The set-up's trace file must decode to the trace generated in-process,
/// and `shm trace gen` must report its event count.
fn check_trace_file(file: &[u8], stdout: &[u8], expected: &ContextTrace) -> Result<(), String> {
    let decoded = gpu_mem_sim::read_trace(file).map_err(|e| format!("trace file: {e}"))?;
    ensure(workload::same_trace(&decoded, expected), || {
        "the trace file differs from the in-process trace".into()
    })?;
    let events = expected.all_events().count() as u64;
    let reported = parse::trace_gen_events(&String::from_utf8_lossy(stdout));
    ensure(reported == Some(events), || {
        format!("trace gen reported {reported:?} events, expected {events}")
    })
}
