#!/usr/bin/env bash
# The line-count rule the simplicity PRs report against: for every *.rs
# under crates/*/src, the lines before the first `#[cfg(test)]`.
#
#   scripts/loc.sh          the working tree
#   scripts/loc.sh <rev>    that revision, read with `git show`
#
# Prints one "lines  path" row per file and the total; to see what a
# change did:  diff <(scripts/loc.sh HEAD~1) <(scripts/loc.sh)
#
# Only tools guaranteed on a stock runner are used (git, awk, grep).

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
rev="${1:-}"

files() {
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev"
    else
        git ls-files --cached --others --exclude-standard
    fi | grep -E '^crates/[^/]+/src/.*\.rs$' | sort
}

total=0
while read -r path; do
    if [ -n "$rev" ]; then
        src=$(git show "$rev:$path")
    elif [ -f "$path" ]; then
        src=$(cat "$path")
    else
        continue # deleted in the working tree
    fi
    n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' <<<"$src")
    printf '%6d  %s\n' "$n" "$path"
    total=$((total + n))
done < <(files)
printf '%6d  total\n' "$total"
