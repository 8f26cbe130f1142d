#!/usr/bin/env bash
# The benchmark's single entry point: builds the package from source and
# runs one workload once. Run from the repository root, or anywhere: the
# script moves there first.
#
#   bash benchmark/run.sh --workload <job_cold|tpch_prep|torture_slices|wire_warm> \
#        --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --check-repeat [--runs N] [--workloads a,b]
#
# The last line of standard output is the JSON result; the lines before it
# name every metric with its unit. Build output goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

if [ "${1:-}" = "--check-repeat" ]; then
    shift
    exec python3 benchmark/check_repeat.py "$@"
fi

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/skinner-benchmark" "$@"
