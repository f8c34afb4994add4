#!/usr/bin/env bash
# Size ledger: non-test Rust lines per crate and in total.
#
# Counts, for every .rs file under crates/*/src, crates/*/benches,
# vendor/*/src and the root src/, the lines before the file's first
# unindented `#[cfg(test)]` (its test module; an indented one gates a
# test-only item inside non-test code), or the whole file when it has
# none. Files under a `tests/` directory are not scanned at all. The
# total is the number ROADMAP item 6 tracks: a PR that claims to
# simplify must lower it without reformatting, comment deletion or
# moving code into tests.
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
total=0
for root in crates/*/src crates/*/benches vendor/*/src src; do
    [ -d "$root" ] || continue
    lines=$(find "$root" -name '*.rs' -print0 |
        xargs -0 -r awk 'FNR == 1 { counting = 1 } /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }')
    printf '%8d  %s\n' "$lines" "$root"
    total=$((total + lines))
done
printf '%8d  total\n' "$total"
