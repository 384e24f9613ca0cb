#!/usr/bin/env bash
# Builds `matic` and the benchmark harness from source, records the host,
# then runs the harness. Run from the repository root:
#
#   bash matbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash matbench/run.sh --self-test
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). Build time
# is not part of any metric.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Temporary files (the C compiler's, the build's) stay inside the checkout.
mkdir -p "$CARGO_TARGET_DIR/tmp"
TMPDIR=$(cd "$CARGO_TARGET_DIR/tmp" && pwd)
export TMPDIR
# `matic` lives in the matic-cli package: a root build does not rebuild it.
cargo build --release --offline --quiet -p matic-cli >&2
cargo build --release --offline --quiet --manifest-path matbench/Cargo.toml >&2
export MATBENCH_MATIC="$CARGO_TARGET_DIR/release/matic"
export MATBENCH_DIR="$CARGO_TARGET_DIR/matbench"

commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$(pwd -P)" ]; then
    commit=$(git rev-parse HEAD)
fi
cpu=$(grep -m1 '^model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//' || true)
echo "host: nproc=$(nproc) cpu=\"${cpu:-unknown}\" rustc=\"$(rustc --version)\"" \
    "cc=\"$(cc --version 2>/dev/null | sed -n 1p || true)\" commit=$commit"
# Not exec'd: the harness reads its children's peak memory, and cargo's
# must not count.
"$CARGO_TARGET_DIR/release/matbench" "$@"
