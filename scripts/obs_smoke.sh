#!/usr/bin/env bash
# Observability smoke (docs/OBSERVABILITY.md):
#   1. byte-identity: a two-lane sweep must print the exact table a serial
#      sweep prints
#   2. a run's telemetry JSONL and epoch CSV must be deterministic: two
#      identical `shm run --telemetry --trace-out --epoch-csv` runs write
#      byte-identical files; and the epochs, deltas of the run's SimStats,
#      must sum to it: the CSV's `accesses` column to the run's accesses
#   3. `shm run --profile` must print the phase table and coverage line,
#      with the SHM engine's metadata work in its own `metadata_walk` row
set -euo pipefail
cd "$(dirname "$0")/.."

SHM=target/release/shm
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p shm-cli

# --- 1: the sweep table does not depend on the worker count.
"$SHM" sweep -b lbm --jobs 1 > "$tmp/serial.txt"
"$SHM" sweep -b lbm --jobs 2 > "$tmp/parallel.txt"
diff "$tmp/serial.txt" "$tmp/parallel.txt"

# --- 2: the telemetry outputs are deterministic functions of their run,
#     and the epochs sum to the run's SimStats.
for i in 1 2; do
    "$SHM" run -b fdtd2d -d SHM --events 8192 --telemetry \
        --trace-out "$tmp/telemetry$i.jsonl" --epoch-csv "$tmp/epochs$i.csv" \
        > "$tmp/run$i.txt"
done
cmp "$tmp/telemetry1.jsonl" "$tmp/telemetry2.jsonl"
cmp "$tmp/epochs1.csv" "$tmp/epochs2.csv"
# The report's first line ends in "(K kernels, N accesses)".
accesses=$(head -n 1 "$tmp/run1.txt" | sed -E 's/.* ([0-9]+) accesses\)$/\1/')
awk -F, -v want="$accesses" '
    NR == 1 { for (i = 1; i <= NF; i++) if ($i == "accesses") col = i; next }
    { sum += $col }
    END {
        if (!col || sum != want) {
            print "epoch accesses sum to " sum ", the run reports " want
            exit 1
        }
    }
' "$tmp/epochs1.csv"

# --- 3: the phase self-profiler.
"$SHM" run -b fdtd2d -d SHM --profile > "$tmp/profile.txt"
grep -q 'profile: phases cover' "$tmp/profile.txt"
grep -q 'access_issue' "$tmp/profile.txt"
grep -q 'metadata_walk' "$tmp/profile.txt"

echo "obs-smoke: OK"
