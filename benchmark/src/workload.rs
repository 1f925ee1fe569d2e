//! The four workloads: their inputs, the user commands they time, the
//! in-process jobs that reproduce those commands, and the checks and
//! paper-fidelity numbers computed from the commands' output.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use gpu_mem_sim::{ContextTrace, DesignPoint, EnergyModel, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm::readonly::RoAccuracy;
use shm::streaming::StreamAccuracy;
use shm_pool::{PlacementPolicy, PoolsConfig};
use shm_workloads::BenchmarkProfile;

use crate::parse::{Figure, SweepTable};

/// Trace scale of the `paper-figures` workload.
const PAPER_SCALE: &str = "0.1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperFigures,
    StreamRo,
    RandomRw,
    HeteroKv,
}

/// Which repository binary a command runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Program {
    Repro,
    Shm,
}

/// One in-process simulation: a trace of the workload under one design,
/// optionally behind heterogeneous pools.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub trace: usize,
    pub pools: Option<PoolsConfig>,
    pub design: DesignPoint,
}

/// What one simulation reports: statistics plus the predictor accuracies
/// Figs. 10 and 11 plot (zero for designs without SHM predictors).
#[derive(Clone, Debug)]
pub struct Sim {
    pub stats: SimStats,
    pub ro: RoAccuracy,
    pub st: StreamAccuracy,
}

impl Sim {
    pub fn ro_correct(&self) -> f64 {
        self.ro.correct as f64 / self.ro.total().max(1) as f64
    }

    pub fn stream_correct(&self) -> f64 {
        self.st.correct as f64 / self.st.total().max(1) as f64
    }
}

/// Runs `job` on `trace`.  Every run builds a fresh simulator, so L2 and
/// metadata caches start cold, as in the paper's per-context method.
pub fn simulate(trace: &ContextTrace, job: &Job) -> Sim {
    let mut sim = Simulator::new(&GpuConfig::default(), job.design);
    if let Some(pools) = job.pools {
        sim = sim.with_pools(pools);
    }
    let (stats, ro, st) = sim.run_detailed(trace);
    Sim { stats, ro, st }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigures,
        Workload::StreamRo,
        Workload::RandomRw,
        Workload::HeteroKv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::StreamRo => "stream-ro",
            Workload::RandomRw => "random-rw",
            Workload::HeteroKv => "hetero-kv",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ten times the median wall time of one invocation at the seed commit
    /// (2-core x86-64 container); a child still running then is treated as
    /// hung, killed and counted as a failure.
    pub fn hang_timeout(self) -> Duration {
        let baseline_s = match self {
            Workload::PaperFigures => 2.0,
            Workload::StreamRo => 0.9,
            Workload::RandomRw => 0.9,
            Workload::HeteroKv => 1.4,
        };
        Duration::from_secs_f64(10.0 * baseline_s)
    }

    /// The profile and per-kernel event count a sweep workload generates.
    fn sweep_profile(self) -> Option<(&'static str, u64)> {
        match self {
            Workload::PaperFigures => None,
            Workload::StreamRo => Some(("fdtd2d", 100_000)),
            Workload::RandomRw => Some(("bfs", 50_000)),
            Workload::HeteroKv => Some(("kv-cache-growth", 20_000)),
        }
    }

    /// The placement configurations each trace is swept under; `None` is
    /// the default single-pool memory.
    pub fn pools(self) -> Vec<Option<PoolsConfig>> {
        match self {
            Workload::HeteroKv => PlacementPolicy::ALL
                .iter()
                .map(|&p| Some(PoolsConfig::new(p)))
                .collect(),
            _ => vec![None],
        }
    }

    /// The profiles and trace seeds the workload simulates.  The sweeps
    /// draw their trace from `seed` (`events` overrides the per-kernel
    /// event count); `paper-figures` always uses the suite's fixed seeds,
    /// as `repro` does.
    pub fn inputs(self, seed: u64, events: Option<u64>) -> Vec<(BenchmarkProfile, u64)> {
        match self.sweep_profile() {
            None => shm_bench::scaled_suite(PAPER_SCALE.parse().expect("a number"))
                .into_iter()
                .map(|p| {
                    let s = shm_bench::trace_seed(p.name);
                    (p, s)
                })
                .collect(),
            Some((name, default_events)) => {
                let mut p = BenchmarkProfile::by_name(name).expect("a known profile");
                p.events_per_kernel = events.unwrap_or(default_events);
                vec![(p, seed)]
            }
        }
    }

    /// Every distinct simulation behind the workload's output, in the
    /// order `shm sweep` prints its rows.
    pub fn jobs(self, traces: usize) -> Vec<Job> {
        let pools = self.pools();
        let mut jobs = Vec::new();
        for trace in 0..traces {
            for &p in &pools {
                for design in DesignPoint::ALL {
                    jobs.push(Job {
                        trace,
                        pools: p,
                        design,
                    });
                }
            }
        }
        jobs
    }

    /// The input-preparation step the timed invocations reuse: the trace
    /// file of a sweep, or `repro`'s start-up (a table with no simulation).
    pub fn setup_command(self, seed: u64, trace_file: &Path) -> (Program, Vec<String>) {
        match self.sweep_profile() {
            None => (Program::Repro, vec!["table1".into()]),
            Some((name, events)) => (
                Program::Shm,
                [
                    "trace",
                    "gen",
                    "-b",
                    name,
                    "--events",
                    &events.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "-o",
                    &trace_file.display().to_string(),
                ]
                .map(String::from)
                .to_vec(),
            ),
        }
    }

    /// The timed user command.  It runs on one thread: on a shared
    /// two-core host a second worker thread makes the invocation's time
    /// depend on how the host schedules both cores.
    pub fn command(self, trace_file: &Path) -> (Program, Vec<String>) {
        let file = trace_file.display().to_string();
        let (program, args) = match self {
            Workload::PaperFigures => (
                Program::Repro,
                vec!["all", "--scale", PAPER_SCALE, "--jobs", "1"],
            ),
            Workload::StreamRo | Workload::RandomRw => {
                (Program::Shm, vec!["sweep", "--trace", &file, "--jobs", "1"])
            }
            Workload::HeteroKv => (
                Program::Shm,
                vec!["sweep", "--trace", &file, "--pools", "all", "--jobs", "1"],
            ),
        };
        (program, args.into_iter().map(String::from).collect())
    }
}

/// The paper's published numbers the fidelity metrics compare against.
const PAPER_FIG12: [(&str, f64); 5] = [
    ("Naive", 0.461),
    ("Common_ctr", 0.506),
    ("PSSM", 0.814),
    ("SHM", 0.919),
    ("SHM_upper_bound", 0.932),
];
const PAPER_FIG14: [(&str, f64); 4] = [
    ("Naive", 1.89),
    ("PSSM", 0.171),
    ("SHM_readOnly", 0.132),
    ("SHM", 0.0595),
];
const PAPER_FIG15: [(&str, f64); 2] = [("Naive", 2.15), ("SHM", 1.061)];
/// Fig. 10 read-only and Fig. 11 streaming prediction accuracy.
const PAPER_PREDICTOR: [f64; 2] = [0.8931, 0.8336];

/// Distance of one workload's simulated results from the paper's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fidelity {
    /// Mean |normalized IPC − paper| over the Fig. 12 designs.
    pub fig12_ipc_err: f64,
    /// Mean |ln(measured / paper)| of the Fig. 14 bandwidth overheads.
    pub fig14_bw_err: f64,
    /// Mean |normalized energy per instruction − paper| (Fig. 15).
    pub fig15_epi_err: f64,
    /// Mean |accuracy − paper| of the two predictors (Figs. 10, 11).
    pub predictor_acc_err: f64,
}

impl Fidelity {
    /// Compares per-design normalized IPC, bandwidth overhead and energy
    /// plus the two predictor accuracies against the paper.
    pub fn new(
        norm_ipc: impl Fn(&str) -> Option<f64>,
        overhead: impl Fn(&str) -> Option<f64>,
        epi: impl Fn(&str) -> Option<f64>,
        predictor: [f64; 2],
    ) -> Result<Fidelity, String> {
        fn mean_err(
            paper: &[(&str, f64)],
            measured: impl Fn(&str) -> Option<f64>,
            err: impl Fn(f64, f64) -> f64,
        ) -> Result<f64, String> {
            let mut sum = 0.0;
            for &(design, want) in paper {
                let got = measured(design).ok_or_else(|| format!("no {design} value"))?;
                sum += err(got, want);
            }
            Ok(sum / paper.len() as f64)
        }
        Ok(Fidelity {
            fig12_ipc_err: mean_err(&PAPER_FIG12, norm_ipc, |a, b| (a - b).abs())?,
            fig14_bw_err: mean_err(&PAPER_FIG14, overhead, |a, b| (a / b).ln().abs())?,
            fig15_epi_err: mean_err(&PAPER_FIG15, epi, |a, b| (a - b).abs())?,
            predictor_acc_err: predictor
                .iter()
                .zip(PAPER_PREDICTOR)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0,
        })
    }

    /// From `repro`'s MEAN rows, as the paper reports its suite means.
    pub fn of_figures(figs: &[Figure]) -> Result<Fidelity, String> {
        let fig = |n: u32| {
            figs.iter()
                .find(|f| f.number == n)
                .ok_or_else(|| format!("no Fig. {n}"))
        };
        let (f10, f11, f12, f14, f15) = (fig(10)?, fig(11)?, fig(12)?, fig(14)?, fig(15)?);
        let correct = |f: &Figure| f.mean_of("correct").ok_or("no correct column".to_string());
        Fidelity::new(
            |d| f12.mean_of(d),
            |d| f14.mean_of(d),
            |d| f15.mean_of(d),
            [correct(f10)?, correct(f11)?],
        )
    }

    /// From one sweep's tables (values averaged over the placement
    /// policies) and the accuracies of its SHM run.
    pub fn of_sweep(tables: &[SweepTable], shm: &Sim) -> Result<Fidelity, String> {
        let column = |design: &str, value: fn(&crate::parse::SweepRow) -> f64| {
            let values: Vec<f64> = tables
                .iter()
                .filter_map(|t| t.rows.iter().find(|r| r.design == design))
                .map(value)
                .collect();
            (values.len() == tables.len() && !values.is_empty())
                .then(|| values.iter().sum::<f64>() / values.len() as f64)
        };
        Fidelity::new(
            |d| column(d, |r| r.norm_ipc),
            |d| column(d, |r| r.overhead),
            |d| column(d, |r| r.epi),
            [shm.ro_correct(), shm.stream_correct()],
        )
    }

    pub fn metrics(&self) -> [(&'static str, f64); 4] {
        [
            ("fig12_ipc_err", self.fig12_ipc_err),
            ("fig14_bw_err", self.fig14_bw_err),
            ("fig15_epi_err", self.fig15_epi_err),
            ("predictor_acc_err", self.predictor_acc_err),
        ]
    }
}

/// Checks that `repro all` printed Figs. 5 and 10–16, each with one row
/// per suite benchmark in suite order and a MEAN row that is the mean of
/// the rows (to the printed precision).
pub fn check_figures(figs: &[Figure]) -> Result<(), String> {
    let numbers: Vec<u32> = figs.iter().map(|f| f.number).collect();
    if numbers != [5, 10, 11, 12, 13, 14, 15, 16] {
        return Err(format!("figures printed: {numbers:?}"));
    }
    let suite: Vec<&str> = BenchmarkProfile::suite().iter().map(|p| p.name).collect();
    for f in figs {
        let rows: Vec<&str> = f.rows.iter().map(|(n, _)| n.as_str()).collect();
        if rows != suite {
            return Err(format!("Fig. {} rows: {rows:?}", f.number));
        }
        for (c, &mean) in f.mean.iter().enumerate() {
            let sum: f64 = f.rows.iter().map(|(_, v)| v[c]).sum();
            let recomputed = sum / f.rows.len() as f64;
            // Rows and MEAN are each rounded to 4 decimals.
            if (recomputed - mean).abs() > 1.01e-4 {
                return Err(format!(
                    "Fig. {} column {}: MEAN {mean} but rows average {recomputed}",
                    f.number, f.header[c]
                ));
            }
        }
    }
    Ok(())
}

/// Checks benchmark `bench`'s cells in every figure `runs` (keyed by
/// design name, Baseline included) determine against the values the
/// in-process simulations give.
pub fn check_figure_cells(
    figs: &[Figure],
    bench: &str,
    runs: &BTreeMap<&str, Sim>,
) -> Result<usize, String> {
    let base = &runs
        .get("Baseline")
        .ok_or("the Baseline run is needed")?
        .stats;
    let energy = EnergyModel::default();
    let mut checked = 0;
    for f in figs {
        for (c, column) in f.header.iter().enumerate() {
            let expected = match (f.number, column.as_str()) {
                (10, "correct") => runs.get("SHM").map(Sim::ro_correct),
                (11, "correct") => runs.get("SHM").map(Sim::stream_correct),
                (12 | 13 | 16, d) => runs
                    .get(d)
                    .map(|r| shm_bench::normalized_ipc(&r.stats, base)),
                (14, d) => runs.get(d).map(|r| r.stats.traffic.overhead_ratio()),
                (15, d) => runs.get(d).map(|r| energy.normalized_epi(&r.stats, base)),
                _ => None,
            };
            let Some(expected) = expected else { continue };
            let printed = f
                .rows
                .iter()
                .find(|(n, _)| n == bench)
                .map(|(_, v)| v[c])
                .ok_or_else(|| format!("Fig. {}: no row {bench}", f.number))?;
            if format!("{printed:.4}") != format!("{expected:.4}") {
                return Err(format!(
                    "Fig. {} {bench} {column}: printed {printed:.4}, simulated {expected:.4}",
                    f.number
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Checks a sweep's printed tables against in-process runs:
/// `sims[t * 10 + d]` is table `t`'s row for `DesignPoint::ALL[d]`, and
/// `None` marks a row that was not simulated.
pub fn check_sweep(
    w: Workload,
    tables: &[SweepTable],
    sims: &[Option<&Sim>],
) -> Result<usize, String> {
    let pools = w.pools();
    if tables.len() != pools.len() {
        return Err(format!(
            "{} tables printed, {} expected",
            tables.len(),
            pools.len()
        ));
    }
    let mut checked = 0;
    for (t, (table, p)) in tables.iter().zip(&pools).enumerate() {
        if table.policy.as_deref() != p.map(|p| p.policy.label()) {
            return Err(format!("table {t} is for pools {:?}", table.policy));
        }
        let designs: Vec<&str> = table.rows.iter().map(|r| r.design.as_str()).collect();
        let all: Vec<&str> = DesignPoint::ALL.iter().map(|d| d.name()).collect();
        if designs != all {
            return Err(format!("table {t} rows: {designs:?}"));
        }
        for (d, row) in table.rows.iter().enumerate() {
            let Some(sim) = sims.get(t * all.len() + d).copied().flatten() else {
                continue;
            };
            let s = &sim.stats;
            if (row.cycles, row.metadata_bytes) != (s.cycles, s.traffic.metadata_bytes()) {
                return Err(format!(
                    "table {t} {}: printed {} cycles / {} metadata B, simulated {} / {}",
                    row.design,
                    row.cycles,
                    row.metadata_bytes,
                    s.cycles,
                    s.traffic.metadata_bytes()
                ));
            }
            if row.design == "SHM" && p.is_some() {
                let expected = vec![
                    s.pool_migrations,
                    s.pool_spills,
                    s.pool_cpu_accesses,
                    s.pool_capacity_events,
                    s.link_bytes_to_gpu,
                    s.link_bytes_to_cpu,
                ];
                if table.pool_counters.as_ref() != Some(&expected) {
                    return Err(format!(
                        "table {t} pool counters {:?}, simulated {expected:?}",
                        table.pool_counters
                    ));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Field-by-field equality of two traces (the trace types do not
/// implement `PartialEq`).
pub fn same_trace(a: &ContextTrace, b: &ContextTrace) -> bool {
    a.name == b.name
        && a.readonly_init == b.readonly_init
        && a.kernels.len() == b.kernels.len()
        && a.kernels.iter().zip(&b.kernels).all(|(x, y)| {
            x.name == y.name && x.events == y.events && x.pre_actions == y.pre_actions
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_of_the_paper_itself_is_zero() {
        let look = |table: &'static [(&'static str, f64)]| {
            move |d: &str| table.iter().find(|(n, _)| *n == d).map(|(_, v)| *v)
        };
        let f = Fidelity::new(
            look(&PAPER_FIG12),
            look(&PAPER_FIG14),
            look(&PAPER_FIG15),
            PAPER_PREDICTOR,
        )
        .expect("every design present");
        assert_eq!(f.metrics().map(|(_, v)| v), [0.0; 4]);
        assert!(Fidelity::new(|_| None, |_| Some(1.0), |_| Some(1.0), [0.0; 2]).is_err());
    }

    #[test]
    fn fixture_figures_pass_the_structure_check() {
        let figs = crate::parse::figures(include_str!("../fixtures/repro_all_scale0.02.txt"))
            .expect("fixture parses");
        check_figures(&figs).expect("fixture is well formed");
        let fidelity = Fidelity::of_figures(&figs).expect("all columns present");
        assert!(fidelity.metrics().iter().all(|(_, v)| *v > 0.0));
        let mut broken = figs.clone();
        broken[3].mean[0] += 0.01;
        assert!(check_figures(&broken).is_err(), "a wrong MEAN is caught");
    }

    #[test]
    fn commands_name_the_shared_trace_file() {
        let file = Path::new("/w/input.trace");
        let (program, args) = Workload::HeteroKv.command(file);
        assert_eq!(program, Program::Shm);
        assert_eq!(
            args,
            [
                "sweep",
                "--trace",
                "/w/input.trace",
                "--pools",
                "all",
                "--jobs",
                "1"
            ]
        );
        let (_, setup) = Workload::RandomRw.setup_command(7, file);
        assert_eq!(
            setup[..6],
            ["trace", "gen", "-b", "bfs", "--events", "50000"]
        );
        assert_eq!(Workload::HeteroKv.jobs(1).len(), 30);
        assert_eq!(Workload::PaperFigures.jobs(16).len(), 160);
    }
}
