#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given
# arguments, e.g.:
#   bash perfbench/run.sh --workload cluster-64 --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the result is the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
