#!/usr/bin/env bash
# Size ledger: non-test Rust lines per crate and in total, then the five
# largest files. Exits non-zero when any counted file is over
# MAX_FILE_LINES (ROADMAP item 1's module bound, held repo-wide).
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

# "<lines> <file>" for every .rs file under the given directories.
count_files() {
    find "$@" -name '*.rs' -print0 |
        xargs -0 -r awk 'FNR == 1 { if (file) print n, file; file = FILENAME; n = 0; counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { if (file) print n, file }'
}

total=0
roots=()
for root in crates/*/src crates/*/benches vendor/*/src src; do
    [ -d "$root" ] || continue
    roots+=("$root")
    lines=$(count_files "$root" | awk '{ n += $1 } END { print n + 0 }')
    printf '%8d  %s\n' "$lines" "$root"
    total=$((total + lines))
done
printf '%8d  total\n' "$total"
echo 'largest files:'
sorted=$(count_files "${roots[@]}" | sort -k1,1nr -k2)
head -5 <<<"$sorted" | while read -r lines file; do
    printf '%8d  %s\n' "$lines" "$file"
done
MAX_FILE_LINES=800
if over=$(awk -v max="$MAX_FILE_LINES" '$1 > max' <<<"$sorted") && [ -n "$over" ]; then
    echo "files over $MAX_FILE_LINES non-test lines (split them):" >&2
    echo "$over" >&2
    exit 1
fi
