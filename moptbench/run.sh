#!/usr/bin/env bash
# Build the release moptd and the benchmark binary, then run one workload:
#
#   bash moptbench/run.sh --workload resnet18 --seed 1 --seconds 10 --trace 0
#   bash moptbench/run.sh --self-test      # the benchmark's own gate tests
#
# Run from the repository root. Build output and scratch state go under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p mopt_service --bin moptd >&2
export MOPTD="$CARGO_TARGET_DIR/release/moptd"
if [ "${1:-}" = "--self-test" ]; then
    exec cargo test --release --quiet --offline --manifest-path moptbench/Cargo.toml
fi
cargo build --release --quiet --offline --manifest-path moptbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/moptbench" --work-dir "$CARGO_TARGET_DIR/moptbench" "$@"
