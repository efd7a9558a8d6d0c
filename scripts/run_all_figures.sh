#!/usr/bin/env bash
# Regenerates the tables of the paper's evaluation into results/*.json
# (tables also print to stdout): every one, the three of `--smoke`, or the
# ones named. DCP_BENCH_BATCHES (default 8) is the batches per configuration.
#
# Usage: run_all_figures.sh [--smoke] [name…]   (the `figures` bin's own)
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release -q -p dcp-bench --bin figures -- "$@"
