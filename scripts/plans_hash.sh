#!/usr/bin/env bash
# "Same plans", mechanically: per benchmark workload at seed 7, the hash of
# its cold set-up plans and the hash of its checked round's plans (placements
# and instruction streams), then the two modelled ledger metrics the plans
# decide, `sim_iter_ms` and `comm_bytes_per_token` (both exact per seed),
# one line per workload, from 3 s checked runs of the ledger. The round's
# plans are the set-up's again where a round plans cold — the run compares
# them bitwise and exits non-zero if any differ — so the two hashes are
# equal there; `replan_stream`'s round is its stream, so its second hash
# covers what the first cannot: every drifted warm re-plan, replay and cache
# hit. The output is committed as results/PLANS_HASH.txt; CI re-runs this
# and fails when a change moved a plan bit, and the diff of a change that
# means to move plans shows what their quality did:
#
#   scripts/plans_hash.sh > results/PLANS_HASH.txt
#
# `--seeds 7,11,23` appends, per listed seed and workload, one line with the
# two modelled metrics at that seed (`<workload> seed=<n> sim_iter_ms=...
# comm_bytes_per_token=...`), so a change that moves plans shows its effect
# on several seeds in one command; seed 7's come from the runs above.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

seeds=()
case ${1-} in
'') ;;
--seeds)
    if [[ ! ${2-} =~ ^[0-9]+(,[0-9]+)*$ || $# -ne 2 ]]; then
        echo "usage: scripts/plans_hash.sh [--seeds <n>[,<n>...]]" >&2
        exit 2
    fi
    IFS=, read -ra seeds <<<"$2"
    ;;
*)
    echo "usage: scripts/plans_hash.sh [--seeds <n>[,<n>...]]" >&2
    exit 2
    ;;
esac

# benchmark/run.sh builds offline, not --locked, so cargo rewrites
# benchmark/Cargo.lock in place whenever it is behind a crate's dependency
# list (it still lists rayon under dcp-hypergraph until a benchmark-only PR
# commits the removal). Leave the checkout as it was found.
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
trap 'cp "$lock" benchmark/Cargo.lock; rm -f "$lock"' EXIT

# One checked 3 s run of workload $1 at seed $2; its output on stdout.
run() {
    if ! bash benchmark/run.sh --workload "$1" --seed "$2" --seconds 3 --trace 0; then
        echo "plans_hash.sh: the checked $1 run at seed $2 failed" >&2
        return 1
    fi
}

# " sim_iter_ms=<v> comm_bytes_per_token=<v>" from a run's result line.
modelled() {
    local result value metric
    result=$(tail -n 1 <<<"$1")
    for metric in sim_iter_ms comm_bytes_per_token; do
        value=$(sed -n 's/.*"'$metric'": {"value": \([^,}]*\).*/\1/p' <<<"$result")
        if [[ -z $value ]]; then
            echo "plans_hash.sh: no $metric in the $2 run's result line" >&2
            return 1
        fi
        printf ' %s=%s' "$metric" "$value"
    done
}

declare -A at7
workloads=(exec_dense exec_sparse plan_cold replan_stream)
for w in "${workloads[@]}"; do
    out=$(run "$w" 7)
    line=$w
    for key in plans_hash round_hash; do
        hash=$(sed -n 's/^LEDGER_DETAIL .*"'$key'": "\([0-9a-f]*\)".*/\1/p' <<<"$out")
        if [[ -z $hash ]]; then
            echo "plans_hash.sh: no $key in the $w run's detail line" >&2
            exit 1
        fi
        line+=" $hash"
    done
    at7[$w]=$(modelled "$out" "$w")
    echo "$line${at7[$w]}"
done

for seed in "${seeds[@]}"; do
    for w in "${workloads[@]}"; do
        if ((seed == 7)); then
            metrics=${at7[$w]}
        else
            out=$(run "$w" "$seed")
            metrics=$(modelled "$out" "$w")
        fi
        echo "$w seed=$seed$metrics"
    done
done
