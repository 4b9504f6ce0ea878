#!/usr/bin/env bash
# The line-count rule the simplicity PRs report against: for every *.rs
# under crates/*/src, the lines before the first `#[cfg(test)]`.
#
#   scripts/loc.sh               the working tree
#   scripts/loc.sh <rev>         that revision, read with `git show`
#   scripts/loc.sh --diff <rev>  the working tree against <rev>: one
#                                "delta  path" row per changed file, then
#                                both totals and their difference
#
# The plain forms print one "lines  path" row per file and the total.
#
# Only tools guaranteed on a stock runner are used (git, awk, grep).

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Rows for revision $1 (the working tree when empty).
count() {
    local rev=$1 path src n total=0
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
    done < <(
        if [ -n "$rev" ]; then
            git ls-tree -r --name-only "$rev"
        else
            git ls-files --cached --others --exclude-standard
        fi | grep -E '^crates/[^/]+/src/.*\.rs$' | sort
    )
    printf '%6d  total\n' "$total"
}

if [ "${1:-}" = --diff ]; then
    base=${2:?usage: scripts/loc.sh --diff <rev>}
    { count "$base" | awk '{ print "old", $0 }'; count "" | awk '{ print "new", $0 }'; } | awk '
        $1 == "old" { old[$3] = $2 }
        $1 == "new" { new[$3] = $2 }
        END {
            for (path in old) seen[path]; for (path in new) seen[path]
            for (path in seen) if (path != "total" && old[path] != new[path]) changed[++n] = path
            for (i = 2; i <= n; i++) {   # insertion sort by path
                p = changed[i]
                for (j = i - 1; j >= 1 && changed[j] > p; j--) changed[j + 1] = changed[j]
                changed[j + 1] = p
            }
            for (i = 1; i <= n; i++) printf "%+6d  %s\n", new[changed[i]] - old[changed[i]], changed[i]
            printf "%6d  total at '"$base"'\n%6d  total now\n%+6d  difference\n",
                old["total"], new["total"], new["total"] - old["total"]
        }'
else
    count "${1:-}"
fi
