#!/usr/bin/env bash
# One command for the whole benchmark: builds `dtp` (root workspace) and the
# harness (this package), then hands every argument to the harness.
#   benchmark/run.sh [--seed N] [--reps N] [--workload NAME] [--smoke] [--selfcheck]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   (driver form)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: no dtp workspace at $PWD (the program is built from source)" >&2
    exit 2
fi

# A shared CARGO_TARGET_DIR (the driver sets one) holds both builds; without
# it each workspace keeps its own target directory.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p dtp-core --bin dtp >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

DTP_BIN="${CARGO_TARGET_DIR:-target}/release/dtp" \
    exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dtp-benchmark" "$@"
