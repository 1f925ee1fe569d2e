//! The `shm` front end, driven through the binary: a journaled sweep
//! killed by the crash switch exits 130, refuses a resume over another
//! trace (exit 1) and resumes to the serial table, the journal flags refuse to run without `--journal` or over an existing
//! journal (exit 2), a `--pools` sweep of a stored trace prints the same at
//! any job count, a telemetry document is the same bytes at any job count,
//! an option the command does not read is refused (exit 2) before it does
//! anything, the retired cluster, span-trace and power-cut surface is a
//! usage error, and a command whose stdout reader is gone ends quietly.

use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shm_front_end_{}_{tag}", std::process::id()))
}

fn shm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shm"))
        .args(args)
        .env_remove("SHM_JOBS")
        .output()
        .expect("shm runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "shm failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("shm prints UTF-8")
}

#[test]
fn crashed_journaled_sweep_resumes_to_the_serial_table() {
    let journal = temp_path("sweep.jsonl");
    let _ = std::fs::remove_file(&journal);
    let j = journal.to_str().expect("UTF-8 temp path");
    let sweep = ["sweep", "-b", "lbm", "--events", "4096"];
    let with = |extra: &[&str]| shm(&[&sweep[..], extra].concat());

    let serial = stdout(&with(&["--jobs", "1"]));
    assert!(serial.contains("SHM_upper_bound"), "{serial}");

    // Two lanes: the switch stops at exactly three whatever is in flight.
    let crashed = with(&["--journal", j, "--crash-after-jobs", "3", "--jobs", "2"]);
    assert_eq!(crashed.status.code(), Some(130), "crash switch exits 130");
    assert!(
        crashed.stdout.is_empty(),
        "no table from an interrupted sweep"
    );

    let rerun = with(&["--journal", j]);
    assert_eq!(
        rerun.status.code(),
        Some(2),
        "existing journal needs --resume"
    );

    // Another seed is another trace under the same labels: its results
    // must not be mixed into this journal.
    let reseeded = with(&["--journal", j, "--resume", "--seed", "7"]);
    assert_eq!(reseeded.status.code(), Some(1), "another trace is refused");
    let stderr = String::from_utf8_lossy(&reseeded.stderr);
    assert!(stderr.contains("different configuration"), "{stderr}");
    assert!(reseeded.stdout.is_empty(), "no table from a refused resume");

    let resumed = stdout(&with(&["--journal", j, "--resume"]));
    assert_eq!(resumed, serial, "resume must print the serial table");

    let orphan = with(&["--resume"]);
    assert_eq!(orphan.status.code(), Some(2), "--resume needs --journal");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn pools_sweep_of_a_stored_trace_is_identical_at_any_job_count() {
    let trace = temp_path("lbm.trace");
    let t = trace.to_str().expect("UTF-8 temp path");
    stdout(&shm(&[
        "trace", "gen", "-b", "lbm", "--events", "4096", "-o", t,
    ]));
    let pools = |jobs: &str| {
        stdout(&shm(&[
            "sweep", "--trace", t, "--pools", "all", "--jobs", jobs,
        ]))
    };
    let serial = pools("1");
    for policy in ["gpu-only", "static-split", "hot-page-migrate"] {
        assert!(
            serial.contains(&format!("== pools: {policy} ==")),
            "{serial}"
        );
    }
    assert_eq!(pools("2"), serial);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn telemetry_documents_are_identical_at_any_job_count() {
    let run = |tag: &str, extra: &[&str]| {
        let path = temp_path(tag);
        let p = path.to_str().expect("UTF-8 temp path");
        let argv = [
            "run",
            "-b",
            "fdtd2d",
            "-d",
            "SHM",
            "--events",
            "4096",
            "--telemetry",
            "--trace-out",
            p,
        ];
        stdout(&shm(&[&argv[..], extra].concat()));
        let doc = std::fs::read(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        doc
    };
    let default_width = run("default.jsonl", &[]);
    let serial = run("serial.jsonl", &["--jobs", "1"]);
    assert!(
        default_width.starts_with(b"{\"type\":\"meta\""),
        "a telemetry document"
    );
    assert!(
        default_width == serial,
        "telemetry documents differ between the default width and --jobs 1"
    );
}

#[test]
fn a_misspelled_option_is_refused_before_the_command_runs() {
    let trace = temp_path("misspelled.trace");
    let _ = std::fs::remove_file(&trace);
    let t = trace.to_str().expect("UTF-8 temp path");
    let out = shm(&[
        "trace", "gen", "-b", "lbm", "--events", "4096", "--sed", "7", "-o", t,
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown option is a usage error"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown option --sed"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!trace.exists(), "nothing is written");
}

/// Options and commands of retired subsystems are usage errors: exit 2
/// before anything runs.
#[test]
fn the_retired_cluster_surface_is_refused() {
    for argv in [
        &["sweep", "-b", "lbm", "--dist", "127.0.0.1:0"][..],
        &["sweep", "-b", "lbm", "--telemetry"],
        &["sweep", "-b", "lbm", "--metrics-addr", "127.0.0.1:0"],
        &["sweep", "-b", "lbm", "--metrics-hold-ms", "1"],
    ] {
        let flag = argv[3];
        let out = shm(argv);
        assert_eq!(out.status.code(), Some(2), "sweep {flag} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "sweep {flag}: no sweep runs");
    }
    for argv in [
        &["worker"][..],
        &["chaos"],
        &["top"],
        &["trace-report", "F"],
        &["crash", "--sweep"],
    ] {
        let command = argv[0];
        let out = shm(argv);
        assert_eq!(out.status.code(), Some(2), "shm {command} is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command \"{command}\"")),
            "{stderr}"
        );
    }
}

/// `shm list | head -1`: SIGPIPE ends the command the way it ends
/// coreutils, with no panic message on stderr.
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_the_command_without_a_panic() {
    use std::os::unix::process::ExitStatusExt;
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_shm"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("shm runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.signal(), Some(13), "killed by SIGPIPE: {stderr}");
}
