#!/usr/bin/env bash
# The benchmark's one command.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload (what the driver calls); the last line of
#       standard output is the JSON result.
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>]
#       all four workloads plain, all four traced, then the combined table.
#   bash benchmark/run.sh --selftest | --contract
#
# Builds the ledger from source (release, offline) on first use. Reads and
# writes only inside the checkout: the build goes to $CARGO_TARGET_DIR
# (default .bench_build at the checkout root), results to benchmark/out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-$root/.bench_build}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target
export LEDGER_OUT=$here/out

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$target/release

# Names, units, bounds and run length live in the code that measures them;
# the committed file must say the same.
if ! "$bin/ledger" --contract | cmp -s - "$root/BENCHMARK.json"; then
    echo "run.sh: BENCHMARK.json differs from 'ledger --contract'; regenerate it with" >&2
    echo "        $bin/ledger --contract > BENCHMARK.json" >&2
    exit 2
fi

trace=0
single=0
mode=
passthrough=()
while (($#)); do
    case $1 in
        --trace) trace=$2; shift 2 ;;
        --workload) single=1; passthrough+=("$1" "$2"); shift 2 ;;
        --selftest | --contract | --table) mode=$1; shift ;;
        *) passthrough+=("$1"); shift ;;
    esac
done

if [[ -n $mode ]]; then
    exec "$bin/ledger" "$mode" "${passthrough[@]}"
fi
if ((single)); then
    if [[ $trace == 1 ]]; then
        exec "$bin/ledger-traced" --traced "${passthrough[@]}"
    fi
    exec "$bin/ledger" "${passthrough[@]}"
fi

status=0
for w in exec_dense exec_sparse plan_cold replan_stream; do
    "$bin/ledger" --workload "$w" "${passthrough[@]}" || status=1
done
for w in exec_dense exec_sparse plan_cold replan_stream; do
    "$bin/ledger-traced" --traced --workload "$w" "${passthrough[@]}" || status=1
done
"$bin/ledger" --table
exit $status
