#!/usr/bin/env bash
# Fails when a `[dependencies]` entry of the root package or of a crate
# under crates/ is never named in that package's src/ (comment lines
# aside). A dependency only tests, examples or benches use belongs in
# `[dev-dependencies]`; one nothing uses goes.
#
#   scripts/unused_deps.sh    # prints each unused entry, exits 1 if any
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '/^\[/ { section = $0; next }
        section == "[dependencies]" && /^[A-Za-z0-9_-]+[ .=]/ {
            split($0, name, /[ .=]/); print name[1]
        }' "$manifest")
    code=$(grep -rhv --include='*.rs' '^[[:space:]]*//' "$dir/src")
    for dep in $deps; do
        # Code names a crate with underscores: `dcp-types` is `dcp_types`.
        if ! grep -qw "${dep//-/_}" <<<"$code"; then
            echo "$manifest: dependency \`$dep\` is not named in $dir/src"
            status=1
        fi
    done
done
exit $status
