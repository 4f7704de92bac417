#!/usr/bin/env bash
# Builds the `wlc` CLI and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve_single --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p wlc-cli >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --wlc "$CARGO_TARGET_DIR/release/wlc" --out e2ebench/out "$@"
