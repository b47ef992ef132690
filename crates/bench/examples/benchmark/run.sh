#!/usr/bin/env bash
# Build the benchmark harness and the `report` binary it drives, then run
# the harness with the given arguments. Run from the repository root:
#
#   bash crates/bench/examples/benchmark/run.sh --workload serve_mixed --seed 1
#
# Both builds land in one target directory (CARGO_TARGET_DIR, default
# .bench_build), so the harness finds `report` next to itself.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$here/../../../../Cargo.toml" \
    -p cm5-bench --bin report >&2

exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
