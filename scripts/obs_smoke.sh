#!/usr/bin/env bash
# Observability smoke (docs/OBSERVABILITY.md):
#   1. byte-identity: a two-lane sweep must print the exact table a serial
#      sweep prints
#   2. a run's telemetry JSONL must be deterministic: two identical
#      `shm run --telemetry --trace-out` runs write byte-identical files
#   3. `shm run --profile` must print the phase table and coverage line,
#      with the SHM engine's metadata work in its own `metadata_walk` row
set -euo pipefail
cd "$(dirname "$0")/.."

SHM=target/release/shm
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p shm-cli

# --- 1: the sweep table does not depend on the worker count.
SHM_JOBS=1 "$SHM" sweep -b lbm > "$tmp/serial.txt"
"$SHM" sweep -b lbm --jobs 2 > "$tmp/parallel.txt"
diff "$tmp/serial.txt" "$tmp/parallel.txt"

# --- 2: the telemetry document is a deterministic function of its run.
for i in 1 2; do
    "$SHM" run -b fdtd2d -d SHM --events 8192 --telemetry \
        --trace-out "$tmp/telemetry$i.jsonl" > /dev/null
done
cmp "$tmp/telemetry1.jsonl" "$tmp/telemetry2.jsonl"

# --- 3: the phase self-profiler.
"$SHM" run -b fdtd2d -d SHM --profile > "$tmp/profile.txt"
grep -q 'profile: phases cover' "$tmp/profile.txt"
grep -q 'access_issue' "$tmp/profile.txt"
grep -q 'metadata_walk' "$tmp/profile.txt"

echo "obs-smoke: OK"
