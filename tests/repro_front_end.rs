//! The `repro` front end, driven through the binary: a journaled figure
//! stopped by the crash switch or by SIGTERM exits 130, and `--resume` then
//! prints exactly what an uninterrupted run prints, for one figure and for
//! the whole evaluation.  An option `repro` does not read, `--dist` of the
//! retired worker cluster among them, is a usage error.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("SHM_JOBS")
        .output()
        .expect("repro runs")
}

#[test]
fn telemetry_dir_is_an_unknown_option() {
    // `shm run -b <bench> -d SHM --telemetry --trace-out F` writes the trace
    // the option used to write once per figure.
    let dir = std::env::temp_dir().join(format!("repro_front_end_telem_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("UTF-8 temp path");
    let out = repro(&["table1", "--telemetry-dir", d]);
    assert_eq!(out.status.code(), Some(2), "an unknown option exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option --telemetry-dir"),
        "stderr: {stderr}"
    );
    assert!(!dir.exists(), "no telemetry directory is created");
}

#[test]
fn dist_is_an_unknown_option() {
    let out = repro(&["fig16", "--scale", "0.02", "--dist", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2), "an unknown option exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --dist"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no figure is rendered");
}

#[test]
fn crashed_figure_resumes_to_the_plain_run() {
    let dir = std::env::temp_dir().join(format!("repro_front_end_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("UTF-8 temp path");
    let fig16 = ["fig16", "--scale", "0.02"];

    let plain = repro(&fig16);
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    assert!(!plain.stdout.is_empty());

    // Two lanes: the switch stops at exactly five whatever is in flight.
    let crash = ["--journal", d, "--crash-after-jobs", "5", "--jobs", "2"];
    let crashed = repro(&[&fig16[..], &crash].concat());
    assert_eq!(crashed.status.code(), Some(130), "crash switch exits 130");

    let resumed = repro(&[&fig16[..], &["--journal", d, "--resume"]].concat());
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "resume must print the plain run's tables"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_repro_all_resumes_to_the_golden_tables() {
    let dir = std::env::temp_dir().join(format!("repro_front_end_all_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("UTF-8 temp path");
    // Scale 0.02 puts every benchmark on the same event floor as 0.05.
    let all = ["all", "--scale", "0.02", "--journal", d];

    // Fig. 12 is the first journaled sweep (16 benchmarks x 6 designs), so
    // the switch trips inside it.
    let crashed = repro(&[&all[..], &["--crash-after-jobs", "40", "--jobs", "2"]].concat());
    let stderr = String::from_utf8_lossy(&crashed.stderr);
    assert_eq!(crashed.status.code(), Some(130), "crash switch exits 130");
    assert!(stderr.contains("interrupted: 40 of 96"), "{stderr}");
    assert!(dir.join("fig12.jsonl").exists() && !dir.join("fig13.jsonl").exists());

    // The 40 jobs fig12 reuses from its journal never enter the memo, so
    // the later figures simulate them afresh.
    let resumed = repro(&[&all[..], &["--resume"]].concat());
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        include_str!("golden/repro_all_scale0.05.txt"),
        "resume must print the golden tables"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_a_journaled_figure_that_resumes_to_the_plain_run() {
    let dir = std::env::temp_dir().join(format!("repro_front_end_term_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("UTF-8 temp path");
    let fig16 = ["fig16", "--scale", "0.02"];
    let plain = repro(&fig16);
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([&fig16[..], &["--jobs", "1", "--journal", d]].concat())
        .env_remove("SHM_JOBS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    // Signal once the journal holds a job line: the sweep is under way.
    let journal = dir.join("fig16.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::fs::read_to_string(&journal).is_ok_and(|j| j.contains("{\"type\":\"job\"")) {
        assert!(
            Instant::now() < deadline,
            "no job journaled within a minute"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let killed = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&killed.stderr);
    assert_eq!(
        killed.status.code(),
        Some(130),
        "SIGTERM exits 130: {stderr}"
    );
    assert!(stderr.contains("interrupted:"), "{stderr}");

    let resumed = repro(&[&fig16[..], &["--journal", d, "--resume"]].concat());
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "resume must print the plain run's tables"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
