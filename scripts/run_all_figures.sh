#!/usr/bin/env bash
# Regenerates the tables of the paper's evaluation into results/*.json
# (tables also print to stdout): every one, or the ones named, each
# configuration averaged over N batches (default 8).
#
# Usage: run_all_figures.sh [--batches N] [name…]   (the `figures` bin's own)
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release -q -p dcp-bench --bin figures -- "$@"
