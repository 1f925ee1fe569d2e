//! One simulation per job: the memo behind `repro`'s figures.
//!
//! Table VII and Figs. 10–16 plot the same (benchmark, design) cells over
//! and over: every suite figure normalizes against Baseline, and SHM
//! appears in seven of them.  A simulation is a pure function of its
//! [`SimJob`] (benchmark, event count, seed, design), so a [`Memo`] runs
//! each job once and hands out copies of the result.
//!
//! A memo lives as long as one `repro` invocation and is never
//! process-global.  It holds what [`SimJob::run_detailed`] returns, never a
//! trace.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use gpu_types::SimStats;

use crate::{Detailed, SimJob};

/// The results of the jobs simulated so far, keyed by job.
#[derive(Debug, Default)]
pub struct Memo {
    slots: Mutex<HashMap<SimJob, Arc<OnceLock<Detailed>>>>,
}

impl Memo {
    /// `job`'s [`SimJob::run_detailed`] result: simulated on the first
    /// request, copied afterwards.
    pub fn detailed(&self, job: &SimJob) -> Detailed {
        self.lookup(job, SimJob::run_detailed)
    }

    /// `job`'s [`SimJob::run`] stats, through the memo.
    pub fn stats(&self, job: &SimJob) -> SimStats {
        self.detailed(job).0
    }

    /// The map lock is held only to find the job's slot, never while
    /// simulating; a second request for a job in flight waits on its slot
    /// instead of simulating it again.  A panicking `run` leaves the slot
    /// empty, so the next request runs the job afresh.
    fn lookup(&self, job: &SimJob, run: impl FnOnce(&SimJob) -> Detailed) -> Detailed {
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(slots.entry(job.clone()).or_default())
        };
        slot.get_or_init(|| run(job)).clone()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use gpu_mem_sim::DesignPoint;
    use shm_workloads::BenchmarkProfile;

    use super::*;
    use crate::Executor;

    #[test]
    fn duplicate_jobs_simulate_once_and_match_a_plain_run() {
        let mut profile = BenchmarkProfile::by_name("fdtd2d").expect("in suite");
        profile.events_per_kernel = 4096;
        let base = SimJob::suite(&profile, DesignPoint::Unprotected);
        let shm = SimJob::suite(&profile, DesignPoint::Shm);
        let jobs = [&base, &shm, &base, &shm, &base, &shm];

        let memo = Memo::default();
        let runs = AtomicUsize::new(0);
        let counted = |job: &SimJob| {
            memo.lookup(job, |j| {
                runs.fetch_add(1, Ordering::SeqCst);
                j.run_detailed()
            })
        };
        let got = Executor::new(2)
            .try_map(&jobs, |_, job| job.label(), |_, job| counted(job))
            .expect("no job panics");
        assert_eq!(runs.load(Ordering::SeqCst), 2, "one simulation per job");
        let want = [base.run(), shm.run()];
        for (job, (stats, _, _)) in jobs.iter().zip(got) {
            let want = &want[usize::from(*job == &shm)];
            assert_eq!(&stats, want, "{}", job.label());
            assert_eq!(&counted(job).0, want, "{}", job.label());
            assert_eq!(&memo.stats(job), want, "{}", job.label());
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2, "later requests are lookups");
        assert!(memo.detailed(&shm).1.total() > 0, "SHM keeps its breakdown");
    }
}
