#!/usr/bin/env bash
# Network stress: the job loop and the cluster's thread machinery, repeated.
# Ten rounds in a row; each round runs the sim-exec and sim-dist unit tests
# plus the cluster integration tests, and the run fails on the first
# failing round.  Races in the accept loop, the handshake or the job loop
# tend to show up only across repeated runs, never in one.
#
#   bash scripts/net_stress.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rounds=10
# Build once up front so the rounds time only the tests.
cargo test -q --no-run -p sim-exec -p sim-dist
cargo test -q --no-run -p shm-bench --test dist_determinism --test observability

for round in $(seq 1 "$rounds"); do
    echo "net-stress: round $round/$rounds"
    cargo test -q -p sim-exec -p sim-dist
    cargo test -q -p shm-bench --test dist_determinism --test observability
done
echo "net-stress: OK ($rounds rounds)"
