#!/usr/bin/env bash
# Observability smoke (docs/OBSERVABILITY.md):
#   1. byte-identity: a sweep with live metrics enabled must print the exact
#      table a metrics-off serial sweep prints
#   2. the sweep's /metrics endpoint must serve the simulator's counters
#   3. the span JSONL a sweep emits must render via `shm trace-report`
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

# One GET /metrics: curl when present, otherwise bash's /dev/tcp.
scrape() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$ADDR/metrics"
    else
        exec 3<>"/dev/tcp/127.0.0.1/$PORT"
        printf 'GET /metrics HTTP/1.0\r\nHost: %s\r\n\r\n' "$ADDR" >&3
        cat <&3
        exec 3<&-
    fi
}

# --- 1 + 2: serial metrics-off reference, then a sweep with live metrics.
SHM_JOBS=1 "$SHM" sweep -b lbm > "$tmp/serial.txt"
"$SHM" sweep -b lbm --jobs 2 --metrics-addr "$ADDR" --metrics-hold-ms 5000 \
    > "$tmp/live.txt" &
sweep=$!

scraped=""
for _ in $(seq 1 120); do
    out=$(scrape 2>/dev/null || true)
    if grep -q '^shm_accesses_total [1-9]' <<<"$out" &&
       grep -q '^shm_l2_misses_total [1-9]' <<<"$out"; then
        scraped=yes
        printf '%s\n' "$out" > "$tmp/metrics.txt"
        break
    fi
    sleep 0.25
done
wait "$sweep"
if [ -z "$scraped" ]; then
    echo "obs-smoke: /metrics never served the expected series" >&2
    exit 1
fi
diff "$tmp/serial.txt" "$tmp/live.txt"

# --- 3: sweep trace spans and the timeline report.
"$SHM" sweep -b lbm --telemetry --trace-out "$tmp/spans.jsonl" > /dev/null
grep -q '"type":"span"' "$tmp/spans.jsonl"
"$SHM" trace-report "$tmp/spans.jsonl" --top 5 > "$tmp/report.txt"
grep -q 'critical path' "$tmp/report.txt"

# --- 4: the phase self-profiler.
"$SHM" run -b fdtd2d -d SHM --profile > "$tmp/profile.txt"
grep -q 'profile: phases cover' "$tmp/profile.txt"
grep -q 'access_issue' "$tmp/profile.txt"
grep -q 'metadata_walk' "$tmp/profile.txt"

echo "obs-smoke: OK"
