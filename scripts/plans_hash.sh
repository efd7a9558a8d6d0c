#!/usr/bin/env bash
# "Same plans", mechanically: the hash of every benchmark workload's cold
# set-up plans (placements and instruction streams) at seed 7, one line per
# workload, from 3 s checked runs of the ledger — each of which also compares
# its round plans, cache hits, replays and warm re-plans with those cold
# plans bitwise and exits non-zero if any differ. The output is committed as
# results/PLANS_HASH.txt; CI re-runs this and fails when a change moved a
# plan bit:
#
#   scripts/plans_hash.sh > results/PLANS_HASH.txt
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# benchmark/run.sh builds offline, not --locked, so cargo rewrites
# benchmark/Cargo.lock in place whenever it is behind a crate's dependency
# list (it still lists rayon under dcp-hypergraph until a benchmark-only PR
# commits the removal). Leave the checkout as it was found.
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
trap 'cp "$lock" benchmark/Cargo.lock; rm -f "$lock"' EXIT

for w in exec_dense exec_sparse plan_cold replan_stream; do
    if ! out=$(bash benchmark/run.sh --workload "$w" --seed 7 --seconds 3 --trace 0); then
        echo "plans_hash.sh: the checked $w run failed" >&2
        exit 1
    fi
    hash=$(sed -n 's/^LEDGER_DETAIL .*"plans_hash": "\([0-9a-f]*\)".*/\1/p' <<<"$out")
    if [[ -z $hash ]]; then
        echo "plans_hash.sh: no plans_hash in the $w run's detail line" >&2
        exit 1
    fi
    echo "$w $hash"
done
