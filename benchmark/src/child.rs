//! Runs one program invocation the way the benchmark times it: in a fresh
//! empty working directory, output captured to files, under a hang
//! timeout, with its wall time and peak resident set size.
//!
//! Peak RSS is the child's VmHWM, polled from `/proc/<pid>/status` every
//! [`POLL`].  The kernel's own `ru_maxrss` is not used: at `exec` it folds
//! in the peak of the address space being replaced, which after
//! `posix_spawn` is this (large) benchmark process.  The child is waited
//! for with `waitid(WNOWAIT)`, which leaves it unreaped, so the watchdog
//! that enforces the timeout can never signal a recycled pid; it is reaped
//! only after the watchdog has been joined.

use std::fs::{self, File};
use std::io;
use std::os::raw::{c_int, c_uint};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("child measurement uses Linux waitid and /proc");

/// Interval between VmHWM samples.
const POLL: Duration = Duration::from_millis(5);

/// How an invocation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Exited(i32),
    Signalled(i32),
    TimedOut,
}

/// One finished invocation.
#[derive(Debug)]
pub struct Outcome {
    pub status: Status,
    /// Spawn to exit, host seconds.
    pub wall_s: f64,
    /// Peak resident set size of the child, MiB.
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.status == Status::Exited(0)
    }

    /// One line describing a failed invocation, with the tail of stderr.
    pub fn failure(&self, what: &str) -> String {
        let tail: String = self
            .stderr
            .lines()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .join(" | ");
        format!(
            "{what}: {:?} after {:.2} s: {tail}",
            self.status, self.wall_s
        )
    }
}

/// Runs `program args` with `dir` (created here, removed afterwards) as its
/// working directory, killing it once `timeout` has passed.
pub fn run(program: &Path, args: &[String], dir: &Path, timeout: Duration) -> io::Result<Outcome> {
    fs::create_dir_all(dir)?;
    let (out_path, err_path) = (dir.join(".stdout"), dir.join(".stderr"));
    // `spawn` returns once the child has called `exec`.
    let mut child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .spawn()?;
    let started = Instant::now();
    let (timed_out, peak_kib, exited) = watch(&mut child, timeout);
    let wall_s = started.elapsed().as_secs_f64();
    if exited.is_err() {
        // Never block in `wait` on a child nobody is watching any more.
        let _ = child.kill();
    }
    let status = child.wait()?;
    exited?;
    let status = match (timed_out, status.code(), status.signal()) {
        (true, _, _) => Status::TimedOut,
        (false, Some(code), _) => Status::Exited(code),
        (false, None, signal) => Status::Signalled(signal.unwrap_or(0)),
    };
    let outcome = Outcome {
        status,
        wall_s,
        peak_rss_mb: peak_kib as f64 / 1024.0,
        stdout: fs::read(&out_path)?,
        stderr: String::from_utf8_lossy(&fs::read(&err_path)?).into_owned(),
    };
    fs::remove_dir_all(dir)?;
    Ok(outcome)
}

/// Blocks until the child exits while a watchdog samples its VmHWM and
/// kills it if `timeout` passes first.  Returns whether the watchdog
/// fired, the peak VmHWM seen (KiB) and the result of the wait.
fn watch(child: &mut Child, timeout: Duration) -> (bool, u64, io::Result<()>) {
    let pid = child.id();
    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let watchdog = scope.spawn(move || {
            let deadline = Instant::now() + timeout;
            let mut peak_kib = 0;
            loop {
                peak_kib = peak_kib.max(vm_hwm_kib(pid).unwrap_or(0));
                let left = deadline.saturating_duration_since(Instant::now());
                match finished.recv_timeout(POLL.min(left)) {
                    Err(mpsc::RecvTimeoutError::Timeout) if left.is_zero() => {
                        // The child is still unreaped here, so `pid` is ours.
                        let _ = child.kill();
                        return (true, peak_kib);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    _ => return (false, peak_kib),
                }
            }
        });
        let exited = wait_exited(pid);
        // Also wakes the watchdog when the wait failed, so the scope ends.
        let _ = done.send(());
        let (timed_out, peak_kib) = watchdog.join().expect("watchdog thread panicked");
        (timed_out, peak_kib, exited)
    })
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB; `None` once the
/// process has released its memory.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;

/// `siginfo_t`: 128 bytes on Linux; only its size matters here.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

extern "C" {
    fn waitid(idtype: c_int, id: c_uint, infop: *mut SigInfo, options: c_int) -> c_int;
}

/// Waits until child `pid` has exited without reaping it.
fn wait_exited(pid: u32) -> io::Result<()> {
    let mut info = SigInfo([0; 128]);
    loop {
        // SAFETY: `info` is a live, writable, suitably aligned buffer of
        // the size of `siginfo_t`, which is all `waitid` writes through.
        let rc = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
        if rc == 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Child half of `peak_rss_counts_a_known_buffer`: a no-op unless the
    /// parent test sets the variable.  The buffer is held for several
    /// sampling intervals so the poller sees it.
    #[test]
    fn allocating_child() {
        if let Some(mb) = std::env::var("BENCHMARK_TEST_ALLOC_MB")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            let buffer = vec![1u8; mb << 20];
            std::hint::black_box(&buffer);
            std::thread::sleep(POLL * 20);
        }
    }

    /// Peak RSS of this test binary re-run as the allocating child; `sh`
    /// sets the variable for the child alone and then `exec`s it.
    fn peak_with(mb: usize, dir: &Path) -> f64 {
        let exe = std::env::current_exe().expect("test binary path");
        let script = format!(
            "BENCHMARK_TEST_ALLOC_MB={mb} exec \"$0\" --exact child::tests::allocating_child \
             --test-threads 1"
        );
        let args = vec!["-c".to_string(), script, exe.display().to_string()];
        let out = run(Path::new("sh"), &args, dir, Duration::from_secs(60)).expect("child runs");
        assert!(out.ok(), "{}", out.failure("allocating child"));
        out.peak_rss_mb
    }

    #[test]
    fn peak_rss_counts_a_known_buffer() {
        let base = std::env::temp_dir().join(format!("shm-benchmark-rss-{}", std::process::id()));
        let idle = peak_with(0, &base.join("idle"));
        let busy = peak_with(64, &base.join("busy"));
        let grown = busy - idle;
        assert!(
            (60.0..72.0).contains(&grown),
            "a 64 MiB buffer raised peak RSS by {grown:.1} MiB ({idle:.1} -> {busy:.1})"
        );
        assert!(
            !base.join("busy").exists(),
            "the working directory is removed"
        );
    }

    #[test]
    fn a_hang_becomes_a_timed_out_outcome() {
        let dir = std::env::temp_dir().join(format!("shm-benchmark-hang-{}", std::process::id()));
        let out = run(
            Path::new("sleep"),
            &["30".to_string()],
            &dir,
            Duration::from_millis(200),
        )
        .expect("sleep runs");
        assert_eq!(out.status, Status::TimedOut);
        assert!(
            out.wall_s < 5.0,
            "killed promptly, took {:.2} s",
            out.wall_s
        );
    }
}
