//! The `repro` front end, driven through the binary: a journaled figure
//! killed by the crash switch exits 130, and `--resume` then prints exactly
//! what an uninterrupted run prints.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("SHM_JOBS")
        .output()
        .expect("repro runs")
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

    // Two lanes: jobs already in flight when the switch trips still land.
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
