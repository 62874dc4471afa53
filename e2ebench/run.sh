#!/usr/bin/env bash
# Builds the programs under test and the benchmark, then runs one workload:
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR
# (default .bench_build); build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p lhr-bench --bin repro_all -p lhr-serve --bin lhr_serve >&2
cargo build --release --quiet --offline --manifest-path e2ebench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/lhr-e2ebench" "$@"
