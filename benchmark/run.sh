#!/usr/bin/env bash
# Build the benchmark from source (offline) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one result line
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]           the whole ledger
#   benchmark/run.sh --check-agree A.json B.json                     compare two ledgers
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export SEMCLUSTER_BENCH_DIR="$here"
exec "$target/release/semcluster-benchmark" "$@"
