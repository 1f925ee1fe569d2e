//! `shm env`: the `SHM_*` environment knobs and their current values.

use shm_bench::cli::{Args, Failure};

/// `shm env`: every `SHM_*` environment knob the toolchain reads, with its
/// current value.  The same table lives in README.md; a test checks that
/// the two list the same knobs and that every knob the sources name has a
/// row.
pub fn cmd_env(_: &Args) -> Result<(), Failure> {
    println!("{:<26} {:<12} meaning", "variable", "value");
    for (name, default, meaning) in env_knob_table() {
        let value = std::env::var(name).unwrap_or_else(|_| format!("(default {default})"));
        println!("{name:<26} {value:<12} {meaning}");
    }
    println!(
        "\naes backend selected by this build/host: {}",
        shm_crypto::selected_backend().name()
    );
    println!(
        "note: `shm run --profile` always forces {}=1 semantics (phase timers \
         are process-global); any --jobs or SHM_JOBS setting is overridden",
        sim_exec::JOBS_ENV
    );
    Ok(())
}

/// The full knob table (name, default, meaning), header row included.
fn env_knob_table() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut knobs: Vec<(&'static str, &'static str, &'static str)> = vec![(
        sim_exec::JOBS_ENV,
        "auto",
        "worker-pool width for sweeps (1 = serial)",
    )];
    knobs.extend(shm_pool::ENV_KNOBS.iter().copied());
    knobs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"SHM_[A-Z_]+"` string literal in the `.rs` files under the
    /// `src` dir of each crate named in `crates` (of every crate when
    /// `crates` is empty), except prefixes (names ending in `_`).
    fn knob_literals(crates: &[&str]) -> std::collections::BTreeSet<String> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut dirs: Vec<std::path::PathBuf> = if crates.is_empty() {
            std::fs::read_dir(&root)
                .expect("crates dir readable")
                .map(|e| e.expect("dir entry").path().join("src"))
                .collect()
        } else {
            crates.iter().map(|c| root.join(c).join("src")).collect()
        };
        let mut found = std::collections::BTreeSet::new();
        while let Some(dir) = dirs.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let src = std::fs::read_to_string(&path).expect("source readable");
                    for (i, _) in src.match_indices("\"SHM_") {
                        let name: String = src[i + 1..]
                            .chars()
                            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                            .collect();
                        if src[i + 1 + name.len()..].starts_with('"') && !name.ends_with('_') {
                            found.insert(name);
                        }
                    }
                }
            }
        }
        found
    }

    /// Asserts that `found` holds each of `expected` (else the scanner is
    /// broken) and that every name in `found` has an `shm env` row.
    fn assert_knobs_in_table(found: &std::collections::BTreeSet<String>, expected: &[&str]) {
        for knob in expected {
            assert!(
                found.contains(*knob),
                "scanner missed {knob} — is it broken? found {found:?}"
            );
        }
        let table: Vec<&str> = env_knob_table().iter().map(|(n, _, _)| *n).collect();
        for knob in found {
            assert!(
                table.contains(&knob.as_str()),
                "knob {knob} is named in the sources but missing from the `shm env` table"
            );
        }
    }

    /// Every pool and link knob the shm-pool sources name has an `shm env`
    /// row.
    #[test]
    fn every_pool_knob_is_in_the_env_table() {
        let expected: Vec<&str> = shm_pool::ENV_KNOBS.iter().map(|(n, _, _)| *n).collect();
        assert_knobs_in_table(&knob_literals(&["pool"]), &expected);
    }

    /// Every knob literal in any crate's sources has an `shm env` row, and
    /// README's "Environment knobs" table lists exactly the `shm env` rows,
    /// in the same order.
    #[test]
    fn env_table_covers_every_knob_and_matches_the_readme() {
        assert_knobs_in_table(&knob_literals(&[]), &[sim_exec::JOBS_ENV]);
        let table: Vec<&str> = env_knob_table().iter().map(|(n, _, _)| *n).collect();

        let readme = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
        )
        .expect("README.md readable");
        let section = readme
            .split("## Environment knobs")
            .nth(1)
            .expect("README has an Environment knobs section");
        let listed: Vec<&str> = section
            .split("\n## ")
            .next()
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(
            listed, table,
            "README's Environment knobs table must list exactly the `shm env` knobs"
        );
    }
}
