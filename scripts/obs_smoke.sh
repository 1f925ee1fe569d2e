#!/usr/bin/env bash
# Observability smoke (docs/OBSERVABILITY.md):
#   1. byte-identity: a dist sweep with live metrics enabled must print the
#      exact table a metrics-off serial sweep prints
#   2. the coordinator's /metrics endpoint must serve the key series,
#      including per-worker gauges aggregated from both loopback workers
#   3. the span JSONL a dist sweep emits must render via `shm trace-report`
#   4. `shm run --profile` must print the phase table and coverage line,
#      with the SHM engine's metadata work in its own `metadata_walk` row
set -euo pipefail
cd "$(dirname "$0")/.."

SHM=target/release/shm
PORT="${OBS_SMOKE_PORT:-9184}"
ADDR="127.0.0.1:$PORT"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p shm-cli

# --- 1 + 2: serial metrics-off reference, then a live loopback cluster.
SHM_JOBS=1 "$SHM" sweep -b lbm > "$tmp/serial.txt"
SHM_DIST_WORKERS=2 "$SHM" sweep -b lbm --dist 127.0.0.1:0 \
    --metrics-addr "$ADDR" --metrics-hold-ms 5000 > "$tmp/dist.txt" &
sweep=$!

scraped=""
for _ in $(seq 1 120); do
    if command -v curl >/dev/null 2>&1; then
        out=$(curl -sf "http://$ADDR/metrics" 2>/dev/null || true)
        if grep -q '^shm_jobs_completed_total' <<<"$out" &&
           grep -q 'shm_worker_completed{worker="local-0"}' <<<"$out" &&
           grep -q 'shm_worker_completed{worker="local-1"}' <<<"$out" &&
           grep -q '^shm_frame_tx_bytes_total' <<<"$out"; then
            scraped=yes
            printf '%s\n' "$out" > "$tmp/metrics.txt"
            break
        fi
    else
        # No curl: `shm top` polls the same endpoint, dependency-free.
        out=$("$SHM" top --connect "$ADDR" --once 2>/dev/null || true)
        if grep -q 'jobs done' <<<"$out" && grep -q 'local-1' <<<"$out"; then
            scraped=yes
            printf '%s\n' "$out" > "$tmp/metrics.txt"
            break
        fi
    fi
    sleep 0.25
done
wait "$sweep"
if [ -z "$scraped" ]; then
    echo "obs-smoke: /metrics never served the expected series" >&2
    exit 1
fi
diff "$tmp/serial.txt" "$tmp/dist.txt"

# --- 3: distributed trace spans and the timeline report.
SHM_DIST_WORKERS=2 "$SHM" sweep -b lbm --dist 127.0.0.1:0 \
    --telemetry --trace-out "$tmp/spans.jsonl" > /dev/null
grep -q '"type":"span"' "$tmp/spans.jsonl"
"$SHM" trace-report "$tmp/spans.jsonl" --top 5 > "$tmp/report.txt"
grep -q 'critical path' "$tmp/report.txt"

# --- 4: the phase self-profiler.
"$SHM" run -b fdtd2d -d SHM --profile > "$tmp/profile.txt"
grep -q 'profile: phases cover' "$tmp/profile.txt"
grep -q 'access_issue' "$tmp/profile.txt"
grep -q 'metadata_walk' "$tmp/profile.txt"

echo "obs-smoke: OK"
