//! One (benchmark, design) simulation, named by value.
//!
//! A [`SimJob`] names a benchmark profile, its (scaled) event count, its
//! trace seed and a design point: everything that decides the simulation's
//! result.  It is the key of the [`Memo`](crate::Memo), and its
//! [`label`](SimJob::label) is the job's name in a sweep's journal.

use gpu_mem_sim::{DesignPoint, Simulator};
use gpu_types::{GpuConfig, SimStats};
use shm::readonly::RoAccuracy;
use shm::streaming::StreamAccuracy;
use shm_workloads::BenchmarkProfile;

use crate::trace_seed;

/// What one simulation reports: its stats plus the read-only and streaming
/// predictor breakdowns Figs. 10 and 11 plot (empty for designs without
/// SHM predictors), as [`Simulator::run_detailed`] returns them.
pub type Detailed = (SimStats, RoAccuracy, StreamAccuracy);

/// One simulation job.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimJob {
    /// Benchmark profile name (must exist in the suite).
    pub bench: String,
    /// Scaled event count of this sweep.
    pub events_per_kernel: u64,
    /// Trace seed (normally `trace_seed(bench)`, but `shm sweep` can pin
    /// its own).
    pub seed: u64,
    /// Design point name (must exist in `DesignPoint::ALL`).
    pub design: String,
}

impl SimJob {
    /// `profile` (already scaled) under `design`, with the suite's trace
    /// seed: the job of one cell of a `repro` figure.
    pub fn suite(profile: &BenchmarkProfile, design: DesignPoint) -> Self {
        SimJob {
            bench: profile.name.to_string(),
            events_per_kernel: profile.events_per_kernel,
            seed: trace_seed(profile.name),
            design: design.name().to_string(),
        }
    }

    /// The job's label: `"<bench> under <design>"`.
    pub fn label(&self) -> String {
        format!("{} under {}", self.bench, self.design)
    }

    /// Runs the simulation this job describes (default config, the job's
    /// trace and seed) and returns its stats.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark or design name; a sweep captures the
    /// panic as the job's labelled failure.
    pub fn run(&self) -> SimStats {
        self.run_detailed().0
    }

    /// [`SimJob::run`], plus the predictor breakdowns.
    ///
    /// # Panics
    ///
    /// As [`SimJob::run`].
    pub fn run_detailed(&self) -> Detailed {
        let mut profile = BenchmarkProfile::by_name(&self.bench)
            .unwrap_or_else(|| panic!("unknown benchmark '{}' in sweep job", self.bench));
        profile.events_per_kernel = self.events_per_kernel;
        let design = DesignPoint::from_name(&self.design)
            .unwrap_or_else(|| panic!("unknown design '{}' in sweep job", self.design));
        let cfg = GpuConfig::default();
        let trace = profile.generate(self.seed);
        Simulator::new(&cfg, design).run_detailed(&trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_job_run_reproduces_run_one_exactly() {
        let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("in suite");
        profile.events_per_kernel = 4096;
        let job = SimJob::suite(&profile, DesignPoint::Shm);
        assert_eq!(job.label(), "fdtd2d under SHM");
        assert_eq!(job.run(), crate::run_one(&profile, DesignPoint::Shm));
    }
}
