#!/usr/bin/env bash
# Workspace size, so shrinkage is a trend in every PR's diff: per crate, the
# non-blank lines under src/ and the number of public items (pub fn, struct,
# enum, trait), then totals. The output is committed as results/LOC.txt; CI
# re-runs this and fails when the committed file is stale:
#
#   scripts/loc.sh > results/LOC.txt
set -euo pipefail
export LC_ALL=C
cd "$(dirname "${BASH_SOURCE[0]}")/.."

printf '%-12s %8s %9s\n' crate lines pub_items
total_lines=0
total_items=0
for src in src crates/*/src; do
    name=$(basename "$(dirname "$src")")
    [[ $src == src ]] && name=dcp
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 cat | grep -c '[^[:space:]]' || true)
    items=$(find "$src" -name '*.rs' -print0 | xargs -0 cat |
        grep -cE '^[[:space:]]*pub (fn|struct|enum|trait) ' || true)
    printf '%-12s %8d %9d\n' "$name" "$lines" "$items"
    total_lines=$((total_lines + lines))
    total_items=$((total_items + items))
done
printf '%-12s %8d %9d\n' total "$total_lines" "$total_items"
