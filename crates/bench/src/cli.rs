//! The command-line front end `repro` and `shm` share: one argument
//! parser ([`Args`]), one failure type carrying the process exit code
//! ([`Failure`]), the signal handlers ([`install_signal_handlers`]), the
//! `--telemetry` probe of `shm run` and `shm attack` and its epilogue, and
//! one reporting sweep run ([`SweepArgs::run`]) that owns `--jobs`, the
//! journal, `--resume`, `--crash-after-jobs` and interrupted-run handling.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use gpu_types::SimStats;
use shm_telemetry::{Probe, TelemetryConfig};

use crate::{Executor, Journal, SimJob, Sweep};

/// Parsed command-line options: `--key value`, `-k value`, boolean
/// `--flag`s and, where the command takes one, a positional target
/// (`repro`'s target, the file of `shm trace info`).
#[derive(Debug, Default)]
pub struct Args {
    target: Option<String>,
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Argument-parsing failures.
#[derive(Debug)]
pub enum ArgError {
    /// An option that requires a value was given none.
    MissingValue(String),
    /// A positional token appeared where an option was expected.
    Unexpected(String),
    /// A numeric option failed to parse.
    BadNumber {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
    },
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::Unexpected(t) => write!(f, "unexpected argument {t:?}"),
            ArgError::BadNumber { key, value } => {
                write!(f, "option --{key} expects a number, got {value:?}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Options that never take a value.
const FLAGS: &[&str] = &["csv", "telemetry", "resume", "profile"];

impl Args {
    /// Parses `argv` (without the command name); every token must be an
    /// option or an option's value.
    pub fn parse(argv: &[String]) -> Result<Self, ArgError> {
        Self::parse_argv(argv, false)
    }

    /// Like [`Args::parse`], but one token that is not an option is the
    /// target (`repro fig12 --scale 0.1`, `shm trace info FILE`).
    pub fn parse_with_target(argv: &[String]) -> Result<Self, ArgError> {
        Self::parse_argv(argv, true)
    }

    fn parse_argv(argv: &[String], with_target: bool) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--").or_else(|| tok.strip_prefix('-')) else {
                if with_target && args.target.is_none() {
                    args.target = Some(tok.clone());
                    continue;
                }
                return Err(ArgError::Unexpected(tok.clone()));
            };
            if FLAGS.contains(&key) {
                args.flags.push(key.to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
            args.values.insert(key.to_string(), value.clone());
        }
        Ok(args)
    }

    /// The positional target, when [`Args::parse_with_target`] saw one.
    pub fn target(&self) -> Option<&str> {
        self.target.as_deref()
    }

    /// The name of an option given that is not in `known` (flags and
    /// valued options alike), if there is one.
    pub fn unknown_option(&self, known: &[&str]) -> Option<&str> {
        self.values
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .find(|k| !known.contains(k))
    }

    /// Looks up a string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Looks up an integer option.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is present but not a number.
    pub fn get_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.number(key)
    }

    /// Looks up a real-valued option.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is present but not a number.
    pub fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.number(key)
    }

    fn number<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                ArgError::BadNumber {
                    key: key.to_string(),
                    value: v.clone(),
                }
                .to_string()
            }),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// `--jobs N`: the worker-pool width (`None` defers to `SHM_JOBS` and
    /// the machine).  `--jobs 0` or a non-numeric value means "auto" with
    /// a stderr warning, mirroring the `SHM_JOBS` policy.
    pub fn jobs(&self) -> Option<usize> {
        let raw = self.get("jobs")?;
        let parsed = sim_exec::parse_jobs_spec(raw);
        if parsed.is_none() {
            eprintln!(
                "warning: ignoring --jobs {raw:?} (expected a positive integer); \
                 using auto parallelism"
            );
        }
        parsed
    }
}

/// A failed command: its message, the process exit code — 1 runtime
/// failure, 2 usage, 3 broken integrity claim, 130 interrupted — and, when
/// telemetry was on, the probe whose flight recorder is dumped.
#[derive(Debug)]
pub struct Failure {
    message: String,
    code: u8,
    probe: Probe,
}

impl Failure {
    fn new(message: impl Into<String>, code: u8, probe: &Probe) -> Self {
        Self {
            message: message.into(),
            code,
            probe: probe.clone(),
        }
    }

    /// Usage or argument error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(message, 2, &Probe::disabled())
    }

    /// Runtime failure after work started (exit code 1).
    pub fn runtime(message: impl Into<String>, probe: &Probe) -> Self {
        Self::new(message, 1, probe)
    }

    /// Integrity failure: an attack campaign broke the security claim
    /// (exit code 3, so scripts can tell a broken claim from a crashed
    /// run).
    pub fn integrity(message: impl Into<String>, probe: &Probe) -> Self {
        Self::new(message, 3, probe)
    }

    /// Cooperative cancellation (SIGINT/SIGTERM or the crash switch)
    /// stopped the run early (exit code 130; a journaled sweep stays
    /// resumable).
    pub fn interrupted(message: impl Into<String>) -> Self {
        Self::new(message, 130, &Probe::disabled())
    }

    /// Prints the failure to stderr — the flight recorder when it holds
    /// events, and `usage` after a usage error — and returns the exit code.
    pub fn report(self, usage: &str) -> ExitCode {
        eprintln!("error: {}", self.message);
        if let Some(dump) = self.probe.flight_dump().filter(|d| !d.is_empty()) {
            eprintln!("--- flight recorder (last events before failure) ---");
            eprint!("{dump}");
        }
        if self.code == 2 {
            eprintln!("{usage}");
        }
        ExitCode::from(self.code)
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::usage(message)
    }
}

impl From<ArgError> for Failure {
    fn from(e: ArgError) -> Self {
        Failure::usage(e.to_string())
    }
}

/// Routes SIGINT/SIGTERM into sim-exec's cooperative cancellation: a sweep
/// finishes its in-flight jobs (journaling each one), stops pulling new
/// work and fails with exit code 130, so journals and sinks stay valid.  A
/// second signal exits 130 at once, for a command that does not stop on the
/// first; a journal then keeps every completed line and at most one torn
/// final line, which `--resume` drops.  SIGPIPE gets its default action
/// back (the Rust runtime ignores it), so a command whose reader goes away
/// (`shm list | head -1`) ends quietly, as coreutils do, instead of
/// panicking on the failed print; socket writes are unaffected, because
/// std sends with `MSG_NOSIGNAL`.  Uses the C runtime's `signal` and
/// `_exit` directly: the handler only touches an atomic or ends the
/// process, both async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    use std::ffi::c_int;
    extern "C" {
        /// `handler` is a `sighandler_t`: a handler's address or `SIG_DFL`.
        fn signal(signum: c_int, handler: usize) -> usize;
        fn _exit(status: c_int) -> !;
    }
    extern "C" fn on_signal(_signum: c_int) {
        if sim_exec::cancel_requested() {
            // SAFETY: `_exit` takes any status, never returns and is
            // async-signal-safe (it runs no atexit handlers or destructors).
            unsafe { _exit(130) }
        }
        sim_exec::request_cancel();
    }
    const SIGINT: c_int = 2;
    const SIGPIPE: c_int = 13;
    const SIGTERM: c_int = 15;
    const SIG_DFL: usize = 0;
    let handler = on_signal as extern "C" fn(c_int) as usize;
    // SAFETY: SIGINT, SIGTERM and SIGPIPE are valid signal numbers;
    // `on_signal` is an `extern "C"` function that stays valid for the
    // process's life and does only async-signal-safe work (an atomic load
    // and store, or `_exit`), and `SIG_DFL` restores the default action.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
        signal(SIGPIPE, SIG_DFL);
    }
}

/// Signals are a Unix notion; elsewhere the default handlers stay.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// The probe `--telemetry [--epoch-cycles N] [--trace-out F]` asks for;
/// disabled (zero-cost) without `--telemetry`.
///
/// # Errors
///
/// A usage failure for a telemetry option without `--telemetry`, a bad
/// number, or a `--trace-out` file that cannot be created.
pub fn telemetry_probe(args: &Args) -> Result<Probe, Failure> {
    if !args.flag("telemetry") {
        if ["trace-out", "epoch-cycles", "epoch-csv"]
            .iter()
            .any(|k| args.get(k).is_some())
        {
            return Err(Failure::usage(
                "--trace-out/--epoch-cycles/--epoch-csv require --telemetry",
            ));
        }
        return Ok(Probe::disabled());
    }
    let mut cfg = TelemetryConfig::default();
    if let Some(n) = args.get_u64("epoch-cycles")? {
        cfg.epoch_cycles = n.max(1);
    }
    // With --trace-out the JSONL document streams to disk as the run
    // produces it; without it events are only counted and kept in the
    // flight-recorder ring.
    let probe = match args.get("trace-out") {
        Some(path) => Probe::enabled_streaming(cfg, Path::new(path))
            .map_err(|e| Failure::usage(format!("create {path}: {e}")))?,
        None => Probe::enabled(cfg),
    };
    probe.install_panic_hook();
    Ok(probe)
}

/// The `--telemetry` epilogue: closes the probe's document, prints its
/// summary, and reports the `--trace-out` and `--epoch-csv` outputs.
///
/// # Errors
///
/// A runtime failure when the streamed trace or the epoch CSV could not be
/// written.
pub fn finish_telemetry(args: &Args, probe: &Probe) -> Result<(), Failure> {
    if !probe.is_enabled() {
        return Ok(());
    }
    probe.finalize(0);
    if let Some(s) = probe.summary() {
        println!("{s}");
    }
    if let Some(path) = args.get("trace-out") {
        // The document streamed to disk during the run; surface any write
        // error the sink swallowed mid-run.
        if let Some(e) = probe.stream_error() {
            return Err(Failure::runtime(format!("write {path}: {e}"), probe));
        }
        println!("telemetry trace streamed to {path}");
    }
    if let Some(path) = args.get("epoch-csv") {
        probe
            .write_epoch_csv(Path::new(path))
            .map_err(|e| Failure::runtime(format!("write {path}: {e}"), probe))?;
        println!("epoch CSV written to {path}");
    }
    Ok(())
}

/// The sweep options of a command line: the pool width (`--jobs N`) and
/// the journal (`--journal PATH [--resume] [--crash-after-jobs N]`).
#[derive(Debug)]
pub struct SweepArgs {
    /// `--jobs N` (`None`: `SHM_JOBS` or the machine decides).
    pub jobs: Option<usize>,
    /// `--journal PATH`: a file for `shm sweep`, a directory for `repro`.
    pub journal: Option<PathBuf>,
    /// `--resume`: continue an existing journal.
    pub resume: bool,
    /// `--crash-after-jobs N`: stop after N fresh completions.
    pub crash_after_jobs: Option<usize>,
}

impl SweepArgs {
    /// The options [`SweepArgs::from_args`] reads.
    pub const OPTIONS: &'static [&'static str] = &["jobs", "journal", "resume", "crash-after-jobs"];

    /// Reads the sweep options.
    ///
    /// # Errors
    ///
    /// A usage failure for `--resume` or `--crash-after-jobs` without
    /// `--journal`, or a bad number.
    pub fn from_args(args: &Args) -> Result<Self, Failure> {
        let journal = args.get("journal").map(PathBuf::from);
        let resume = args.flag("resume");
        let crash_after_jobs = args.get_u64("crash-after-jobs")?.map(|n| n as usize);
        if journal.is_none() && (resume || crash_after_jobs.is_some()) {
            return Err(Failure::usage(
                "--resume/--crash-after-jobs require --journal",
            ));
        }
        Ok(Self {
            jobs: args.jobs(),
            journal,
            resume,
            crash_after_jobs,
        })
    }

    /// Runs `sweep` the way both front ends report it and returns every
    /// job's stats in submission order.
    ///
    /// - The jobs run on `--jobs N` workers as `simulate(index, job)` (see
    ///   [`Sweep::run`]).
    /// - Under `--journal`, `journal(path, jobs)` names the journal file and
    ///   its config hash.  An existing journal needs `--resume`.
    /// - Stderr gets the resumed-from line, prefixed `name: `.
    /// - An interrupted sweep lists the jobs it journaled and fails with
    ///   exit code 130.
    ///
    /// # Errors
    ///
    /// A usage failure for an existing journal without `--resume`, a
    /// runtime failure when the sweep fails, an interruption otherwise.
    pub fn run<J, F>(
        &self,
        sweep: &mut Sweep,
        name: &str,
        journal: J,
        simulate: F,
    ) -> Result<Vec<SimStats>, Failure>
    where
        J: FnOnce(&Path, &[SimJob]) -> Journal,
        F: Fn(usize, &SimJob) -> SimStats + Sync,
    {
        sweep.executor = Executor::from_request(self.jobs);
        if let Some(path) = &self.journal {
            let journal = Journal {
                crash_after_jobs: self.crash_after_jobs,
                ..journal(path, &sweep.jobs)
            };
            if !self.resume && journal.path.exists() {
                return Err(Failure::usage(format!(
                    "journal {} already exists; pass --resume to continue it or remove it first",
                    journal.path.display()
                )));
            }
            sweep.journal = Some(journal);
        }
        let run = sweep.run(simulate).map_err(|e| {
            Failure::runtime(format!("{name} sweep failed: {e}"), &Probe::disabled())
        })?;
        if let Some(journal) = sweep.journal.as_ref().filter(|_| run.reused > 0) {
            eprintln!(
                "{name}: resumed from {}: {} job(s) reused, {} executed",
                journal.path.display(),
                run.reused,
                run.executed
            );
        }
        if let Some(stats) = run.complete() {
            return Ok(stats);
        }
        if let Some(journal) = &sweep.journal {
            eprintln!(
                "interrupted: {} of {} job(s) completed and journaled in {}",
                run.completed_labels.len(),
                sweep.jobs.len(),
                journal.path.display()
            );
            for label in &run.completed_labels {
                eprintln!("  done {label}");
            }
            eprintln!("re-run with --resume to pick up where this left off");
        }
        Err(Failure::interrupted(format!("{name} sweep interrupted")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn target_is_the_one_positional_token() {
        let a = Args::parse_with_target(&argv(&["--scale", "0.1", "fig12", "--resume"]))
            .expect("parse");
        assert_eq!(a.target(), Some("fig12"));
        assert_eq!(a.get_f64("scale").expect("number"), Some(0.1));
        assert!(a.flag("resume"));
        assert!(matches!(
            Args::parse_with_target(&argv(&["fig12", "fig13"])),
            Err(ArgError::Unexpected(_))
        ));
        assert_eq!(Args::parse(&[]).expect("parse").target(), None);
    }

    #[test]
    fn unknown_options_are_named() {
        let a = Args::parse(&argv(&["--scale", "1", "--resume", "--bogus", "x"])).expect("parse");
        assert_eq!(a.unknown_option(&["scale", "resume"]), Some("bogus"));
        assert_eq!(a.unknown_option(&["scale", "resume", "bogus"]), None);
    }

    #[test]
    fn resume_and_crash_switch_need_a_journal() {
        for flags in [&["--resume"][..], &["--crash-after-jobs", "3"]] {
            let err = SweepArgs::from_args(&Args::parse(&argv(flags)).expect("parse"))
                .expect_err("no --journal");
            assert_eq!(err.code, 2);
        }
        let ok = SweepArgs::from_args(
            &Args::parse(&argv(&["--journal", "j", "--crash-after-jobs", "3"])).expect("parse"),
        )
        .expect("journaled");
        assert_eq!(ok.crash_after_jobs, Some(3));
        assert!(!ok.resume);
    }
}
