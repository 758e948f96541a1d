#!/usr/bin/env bash
# Builds the benchmark and the `loopml-serve` daemon it drives, then runs
# one workload. Run from the repository root:
#
#   bash loopbench/run.sh --workload train-quick --seed 1 --seconds 30 --trace 0
#
# The daemon is built from the root workspace exactly as users build it;
# the benchmark is its own package. Each gets its own target directory
# under $CARGO_TARGET_DIR (default: loopbench/target).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" \
    --target-dir "$target/daemon" -p loopml-serve --bin loopml-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target/bench" >&2
exec "$target/bench/release/loopbench" --daemon "$target/daemon/release/loopml-serve" \
    --work "$target/work" "$@"
