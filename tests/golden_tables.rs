//! Golden tables: `repro all --scale 0.05` must print exactly the
//! checked-in `tests/golden/repro_all_scale0.05.txt`.  That file holds every
//! table and figure of the evaluation, so a change that moves any number
//! fails here and has to update the file on purpose.
//!
//! Scale 0.05 puts every benchmark on the 4,096-event floor of
//! `scaled_suite`, so the file is also what scale 0.02 prints.  The run
//! uses one worker and then two: output must not depend on the worker
//! count, nor on the order in which the figures' shared simulations fill
//! `repro`'s memo.

use std::process::Command;

const GOLDEN_PATH: &str = "tests/golden/repro_all_scale0.05.txt";
const GOLDEN: &str = include_str!("golden/repro_all_scale0.05.txt");

#[test]
fn repro_all_matches_the_golden_tables() {
    for jobs in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["all", "--scale", "0.05", "--jobs", jobs])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "repro --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = String::from_utf8(out.stdout).expect("repro prints UTF-8");
        for (n, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "--jobs {jobs}: line {} differs from {GOLDEN_PATH}",
                n + 1
            );
        }
        assert_eq!(
            actual.lines().count(),
            GOLDEN.lines().count(),
            "--jobs {jobs}: line count differs from {GOLDEN_PATH}"
        );
        assert_eq!(
            actual, GOLDEN,
            "--jobs {jobs}: trailing newline differs from {GOLDEN_PATH}"
        );
    }
}
