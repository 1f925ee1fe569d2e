# Developer entry points. Install `just`, or copy the commands verbatim.

# Build everything in release mode.
build:
    cargo build --workspace --release

# Run the full test suite.
test:
    cargo test -q

# Lint: clippy (warnings are errors) + formatting check.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check

# Auto-format the workspace.
fmt:
    cargo fmt

# Everything CI runs, locally.
ci: build test lint

# Regenerate every paper table/figure (scaled down for speed).
repro scale="0.5":
    cargo run --release -p shm-bench --bin repro -- all --scale {{scale}}

# Quickstart run with telemetry: JSONL trace + summary.
telemetry out="run.jsonl":
    cargo run --release -p shm-cli -- run -b fdtd2d -d SHM --telemetry --trace-out {{out}}

# Hot-path microbenches: single-block AES (per-byte reference vs T-tables vs
# AES-NI) and the batched-vs-unbatched issue loop (see docs/PERFORMANCE.md).
bench-micro:
    cargo bench -p shm-bench --bench micro_hotpath

# Adversary-campaign smoke: every tamper class must surface as the expected
# VerifyError with zero false alarms (exit 3 otherwise — docs/ROBUSTNESS.md).
attack-smoke seed="7":
    cargo run --release -p shm-cli -- attack --campaign smoke --seed {{seed}}

# Checkpoint/resume smoke: a sweep killed mid-run must --resume to
# byte-identical tables without re-executing completed jobs (a repro
# figure, and an `shm sweep` journal resumed on two lanes).
recovery-smoke scale="0.25":
    rm -rf /tmp/shm_recovery_j
    cargo run --release -p shm-bench --bin repro -- fig16 --scale {{scale}} > /tmp/shm_recovery_golden.txt
    cargo run --release -p shm-bench --bin repro -- fig16 --scale {{scale}} --journal /tmp/shm_recovery_j --crash-after-jobs 5; test $? -eq 130
    cargo run --release -p shm-bench --bin repro -- fig16 --scale {{scale}} --journal /tmp/shm_recovery_j --resume > /tmp/shm_recovery_resumed.txt
    diff /tmp/shm_recovery_golden.txt /tmp/shm_recovery_resumed.txt
    rm -rf /tmp/shm_recovery_j /tmp/shm_recovery_golden.txt /tmp/shm_recovery_resumed.txt
    rm -f /tmp/shm_recovery_sweep.jsonl
    cargo run --release -p shm-cli -- sweep -b lbm --journal /tmp/shm_recovery_sweep.jsonl --crash-after-jobs 3; test $? -eq 130
    cargo run --release -p shm-cli -- sweep -b lbm --journal /tmp/shm_recovery_sweep.jsonl --resume --jobs 2 > /tmp/shm_recovery_sweep_resumed.txt
    grep -q '^SHM ' /tmp/shm_recovery_sweep_resumed.txt
    SHM_JOBS=1 cargo run --release -p shm-cli -- sweep -b lbm > /tmp/shm_recovery_sweep_serial.txt
    diff /tmp/shm_recovery_sweep_serial.txt /tmp/shm_recovery_sweep_resumed.txt
    rm -f /tmp/shm_recovery_sweep.jsonl /tmp/shm_recovery_sweep_serial.txt /tmp/shm_recovery_sweep_resumed.txt

# Observability smoke: a two-lane sweep table must stay byte-identical to
# a serial run, two identical telemetry runs must write byte-identical
# JSONL, and the phase profiler must render (see docs/OBSERVABILITY.md).
obs-smoke:
    bash scripts/obs_smoke.sh

# Heterogeneous-pool smoke: a capacity-pressured sweep across all three
# placement policies must show the policy signatures (pressure under
# gpu-only, real migrations with non-zero inter-pool byte counters under
# hot-page-migrate), stay byte-identical across job counts, and the
# inter_pool_tamper campaign class must detect every migration tamper
# (exit 3 — docs/HETERO.md).
hetero-smoke:
    bash scripts/hetero_smoke.sh
