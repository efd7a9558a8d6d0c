#!/usr/bin/env bash
# Workspace size, so shrinkage is a trend in every PR's diff: per crate, the
# non-blank lines under src/, the number of public items (pub fn, struct,
# enum, trait), how many of those are unnamed (their name appears in no file
# outside the crate's src/: not in another crate, the root src/, tests/,
# examples/ or benchmark/, nor in the crate's own tests/ and benches/, nor,
# for dcp-bench, in its src/bin/; each is a candidate for `pub(crate)`) and
# the number of options (pub fields of a `pub struct *Config`: each is a
# value a caller can set), then totals. The output is committed as
# results/LOC.txt; CI re-runs this and fails when the committed file is
# stale:
#
#   scripts/loc.sh > results/LOC.txt
#
# `scripts/loc.sh --unnamed` prints the names behind the `unnamed` column
# instead, one `crate name` pair a line.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "${BASH_SOURCE[0]}")/.."

list_unnamed=0
case ${1-} in
'') ;;
--unnamed) list_unnamed=1 ;;
*)
    echo "usage: scripts/loc.sh [--unnamed]" >&2
    exit 2
    ;;
esac

# The identifiers in the .rs files under those of the given paths that
# exist, sorted, unique.
idents() {
    local dirs=() p
    for p in "$@"; do
        [[ -d $p ]] && dirs+=("$p")
    done
    find "${dirs[@]}" -name target -prune -o -name '*.rs' -print0 |
        xargs -0 -r cat | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}

((list_unnamed)) || printf '%-12s %8s %9s %8s %7s\n' crate lines pub_items unnamed options
total_lines=0
total_items=0
total_unnamed=0
total_options=0
for src in src crates/*/src; do
    dir=$(dirname "$src")
    name=$(basename "$dir")
    [[ $src == src ]] && name=dcp
    lines=$(find "$src" -name '*.rs' -print0 | xargs -0 cat | grep -c '[^[:space:]]' || true)
    names=$(find "$src" -name '*.rs' -print0 | xargs -0 cat |
        grep -oE '^[[:space:]]*pub (fn|struct|enum|trait) [A-Za-z0-9_]+' |
        awk '{ print $NF }' | sort || true)
    items=$(grep -c . <<<"$names" || true)
    naming=("$dir/tests" "$dir/benches")
    for p in src tests examples benchmark crates/*; do
        [[ $p != "$src" && $p != "$dir" ]] && naming+=("$p")
    done
    [[ $name == bench ]] && naming+=("$src/bin")
    unnamed_names=$(comm -23 <(grep . <<<"$names" || true) <(idents "${naming[@]}") || true)
    if ((list_unnamed)); then
        [[ -n $unnamed_names ]] && sed "s/^/$name /" <<<"$unnamed_names"
        continue
    fi
    unnamed=$(grep -c . <<<"$unnamed_names" || true)
    options=$(find "$src" -name '*.rs' -print0 | xargs -0 cat | awk '
        /^pub struct [A-Za-z0-9_]*Config[^A-Za-z0-9_]/ { in_config = 1; next }
        /^}/ { in_config = 0 }
        in_config && /^    pub [a-z0-9_]+:/ { n++ }
        END { print n + 0 }')
    printf '%-12s %8d %9d %8d %7d\n' "$name" "$lines" "$items" "$unnamed" "$options"
    total_lines=$((total_lines + lines))
    total_items=$((total_items + items))
    total_unnamed=$((total_unnamed + unnamed))
    total_options=$((total_options + options))
done
((list_unnamed)) || printf '%-12s %8d %9d %8d %7d\n' total "$total_lines" "$total_items" "$total_unnamed" "$total_options"
