#!/usr/bin/env bash
# Heterogeneous-pool smoke (docs/HETERO.md):
#   1. a sweep whose footprint overflows the default GPU pool, across all
#      three placement policies, must show the policy signatures: gpu-only
#      reports capacity pressure, hot-page-migrate actually migrates with
#      non-zero inter-pool byte counters
#   2. the --pools sweep must be byte-identical between --jobs 1 and
#      --jobs 4 (submission-order determinism through the pool hook)
#   3. the default (pool-free) sweep must not mention pools at all — the
#      paper tables stay single-pool
#   4. the adversary campaign must detect every inter_pool_tamper injection
#      (exit 3 otherwise) with zero silent corruptions
set -euo pipefail
cd "$(dirname "$0")/.."

SHM=target/release/shm
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo build --release -p shm-cli

# --- 1: the 32 MiB kv-cache-growth footprint overflows the default 8 MiB
#     GPU pool.
"$SHM" sweep -b kv-cache-growth --events 20000 --pools all --jobs 1 \
    | tee "$tmp/pools.txt"
for policy in gpu-only static-split hot-page-migrate; do
    grep -q "== pools: $policy ==" "$tmp/pools.txt"
done

counters() { # $1 = policy, $2 = awk field of the counters line
    awk -v p="== pools: $1 ==" -v f="$2" \
        '$0 == p {found=1} found && /pool counters/ {print $f; exit}' \
        "$tmp/pools.txt"
}
test "$(counters gpu-only 14)" -gt 0           # capacity events
test "$(counters gpu-only 6)" -eq 0            # gpu-only never migrates
test "$(counters hot-page-migrate 6)" -gt 0    # migrations
test "$(counters hot-page-migrate 17)" -gt 0   # link bytes toward the GPU
test "$(counters hot-page-migrate 20)" -gt 0   # link bytes toward the CPU
test "$(counters static-split 6)" -eq 0        # static split never migrates

# --- 2: job-count determinism through the pool hook.
"$SHM" sweep -b kv-cache-growth --events 20000 --pools all --jobs 4 \
    > "$tmp/pools_j4.txt"
diff "$tmp/pools.txt" "$tmp/pools_j4.txt"

# --- 3: the default sweep stays single-pool (no pool output at all).
"$SHM" sweep -b fdtd2d --events 2048 --seed 7 --jobs 1 > "$tmp/default.txt"
! grep -qi 'pool' "$tmp/default.txt"

# --- 4: every migration tamper must be detected, never silent.
"$SHM" attack --campaign smoke --seed 7 | tee "$tmp/attack.txt"
! grep -q 'silent:true' "$tmp/attack.txt"
awk '$1 == "inter_pool_tamper" {
    if ($2 == 0 || $2 != $3 || $5 != 0) exit 1
    found = 1
} END { exit !found }' "$tmp/attack.txt"

echo "hetero-smoke: OK"
