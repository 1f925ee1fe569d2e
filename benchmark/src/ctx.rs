//! The repository binaries under test and the run's work directory.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::child::{self, Outcome};
use crate::workload::Program;

pub struct Ctx {
    repro: PathBuf,
    shm: PathBuf,
    /// Work directory of this process, removed when the context drops.
    work: PathBuf,
    next_dir: Cell<u64>,
}

impl Ctx {
    /// Builds the repository's `repro` and `shm` binaries from source into
    /// `target_dir` and creates this run's work directory there.
    pub fn prepare(repo: &Path, target_dir: &Path) -> Result<Ctx, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet"])
            .args(["-p", "shm-bench", "-p", "shm-cli"])
            .current_dir(repo)
            .env("CARGO_TARGET_DIR", target_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!(
                "building the repository binaries failed ({status})"
            ));
        }
        let work = target_dir
            .join("benchmark")
            .join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let bin = target_dir.join("release");
        Ok(Ctx {
            repro: bin.join("repro"),
            shm: bin.join("shm"),
            work,
            next_dir: Cell::new(0),
        })
    }

    /// Where a sweep workload's set-up writes the trace its runs read.
    pub fn trace_file(&self) -> PathBuf {
        self.work.join("input.trace")
    }

    /// Runs one command in a fresh, empty working directory.
    pub fn run(
        &self,
        (program, args): &(Program, Vec<String>),
        timeout: Duration,
    ) -> Result<Outcome, String> {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        let exe = match program {
            Program::Repro => &self.repro,
            Program::Shm => &self.shm,
        };
        child::run(exe, args, &self.work.join(format!("run-{n}")), timeout)
            .map_err(|e| format!("{} {}: {e}", exe.display(), args.join(" ")))
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}
