#!/usr/bin/env bash
# Workspace size, so shrinkage is a trend in every PR's diff: per crate, the
# non-blank lines under src/, the number of public items (pub fn, struct,
# enum, trait) and the number of options (pub fields of a `pub struct
# *Config`: each is a value a caller can set), then totals. The output is
# committed as results/LOC.txt; CI re-runs this and fails when the committed
# file is stale:
#
#   scripts/loc.sh > results/LOC.txt
set -euo pipefail
export LC_ALL=C
cd "$(dirname "${BASH_SOURCE[0]}")/.."

printf '%-12s %8s %9s %7s\n' crate lines pub_items options
total_lines=0
total_items=0
total_options=0
for src in src crates/*/src; do
    name=$(basename "$(dirname "$src")")
    [[ $src == src ]] && name=dcp
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 cat | grep -c '[^[:space:]]' || true)
    items=$(find "$src" -name '*.rs' -print0 | xargs -0 cat |
        grep -cE '^[[:space:]]*pub (fn|struct|enum|trait) ' || true)
    options=$(find "$src" -name '*.rs' -print0 | xargs -0 cat | awk '
        /^pub struct [A-Za-z0-9_]*Config[^A-Za-z0-9_]/ { in_config = 1; next }
        /^}/ { in_config = 0 }
        in_config && /^    pub [a-z0-9_]+:/ { n++ }
        END { print n + 0 }')
    printf '%-12s %8d %9d %7d\n' "$name" "$lines" "$items" "$options"
    total_lines=$((total_lines + lines))
    total_items=$((total_items + items))
    total_options=$((total_options + options))
done
printf '%-12s %8d %9d %7d\n' total "$total_lines" "$total_items" "$total_options"
