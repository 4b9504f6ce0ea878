#!/usr/bin/env bash
# The pair protocol a performance claim rests on (benchmark/README.md,
# "Landing a change"): N alternating parent/new runs of the benchmark that
# BENCHMARK.json declares, on every workload, compared metric by metric.
#
#   scripts/bench_pairs.sh <parent-rev> [--pairs N] [--first-seed S] [--workload W]...
#
# "new" is the working tree's tracked state (`git stash create`, so
# uncommitted edits count; `git add` new files first), or HEAD when it is
# clean. Each side is a `git archive` of its commit unpacked under
# $BENCH_PAIRS_DIR (default /tmp/bench-pairs-<pid>, removed on exit) with a
# CARGO_TARGET_DIR of its own, built once. A run is the exact `command` of BENCHMARK.json
# plus `--workload W --seed <seed> --seconds <run_seconds> --trace 0`. Pair k
# (1..N) runs seed S+k-1, S = `--first-seed` (default 1), so re-checking a
# claim on seeds no development run used is one flag; it runs the parent
# first when k is odd, the change first when even.
#
# Prints, per workload x end-to-end metric: both medians with their
# quartiles, wins/losses/ties of the change over the pairs, and whether the
# medians differ by more than the parent's interquartile range (the rule
# for claiming a gain: >= 9 of 10 wins and "yes"). Exits 1 if any run says
# `"correct": false`, has `failed` > 0, or prints no result.
#
# Only tools guaranteed on a stock runner are used (git, cargo, awk, tar).

set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

usage() {
    echo "usage: $0 <parent-rev> [--pairs N] [--first-seed S] [--workload W]..." >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_rev=$(git rev-parse --verify "$1^{commit}") || usage
shift
pairs=10
first_seed=1
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs="${2:?}"; shift 2 ;;
    --first-seed) first_seed="${2:?}"; shift 2 ;;
    --workload) workloads+=("${2:?}"); shift 2 ;;
    *) usage ;;
    esac
done

# BENCHMARK.json, read with awk: the command array, the run length, and the
# names in `workloads` and `end_to_end` (one object per line in that file).
spec=BENCHMARK.json
mapfile -t command < <(awk '
    /"command"/ { s = $0; sub(/^[^\[]*\[/, "", s); sub(/\].*$/, "", s)
                  n = split(s, parts, /", *"/)
                  for (i = 1; i <= n; i++) { gsub(/^ *"|" *$/, "", parts[i]); print parts[i] } }' "$spec")
run_seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$spec")
names_in() {
    awk -v section="\"$1\"" '
        index($0, section) { on = 1; next }
        on && /^ *\]/ { on = 0 }
        on && match($0, /"name": *"[^"]+"/) {
            s = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", s); sub(/"$/, "", s)
            better = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
            print s, better }' "$spec"
}
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(names_in workloads | awk '{ print $1 }')
fi
mapfile -t metrics < <(names_in end_to_end)
[ ${#command[@]} -gt 0 ] && [ -n "$run_seconds" ] && [ ${#metrics[@]} -gt 0 ] || {
    echo "could not read $spec" >&2
    exit 2
}

new_rev=$(git stash create)
new_rev=${new_rev:-$(git rev-parse HEAD)}
work=${BENCH_PAIRS_DIR:-/tmp/bench-pairs-$$}
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT

# The build is the command with `run` turned into `build`.
build=("${command[@]/#run/build}")
[ "${build[-1]}" = "--" ] && unset 'build[-1]'
for side in parent new; do
    rev=$parent_rev
    [ "$side" = new ] && rev=$new_rev
    mkdir "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
    echo "building $side ($(git rev-parse --short "$rev")) ..." >&2
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" "${build[@]}")
done

results="$work/results.tsv" # side workload pair metric value
bad=0
run_one() { # side workload pair
    local out line
    out=$(cd "$work/$1" && CARGO_TARGET_DIR="$work/target-$1" \
        "${command[@]}" --workload "$2" --seed $((first_seed + $3 - 1)) \
        --seconds "$run_seconds" --trace 0 2>&1) || true
    line=$(awk '/^\{"correct"/ { last = $0 } END { print last }' <<<"$out")
    if [ -z "$line" ]; then
        echo "  $1 $2 pair $3: no result" >&2
        tail -n 5 <<<"$out" >&2
        bad=1
        return
    fi
    if ! awk '/"correct": *true/ && /"failed": *0[,}]/ { ok = 1 } END { exit !ok }' <<<"$line"; then
        echo "  $1 $2 pair $3: incorrect or failed operations: ${line:0:80}" >&2
        bad=1
    fi
    local m
    for m in "${metrics[@]}"; do
        m=${m%% *}
        awk -v side="$1" -v w="$2" -v pair="$3" -v m="$m" '
            match($0, "\"" m "\": *\\{\"value\": *[-0-9.e+]+") {
                s = substr($0, RSTART, RLENGTH); sub(/^.*"value": */, "", s)
                print side "\t" w "\t" pair "\t" m "\t" s }' <<<"$line" >>"$results"
    done
}

: >"$results"
for w in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order="parent new"; else order="new parent"; fi
        for side in $order; do
            run_one "$side" "$w" "$pair"
        done
        echo "  $w pair $pair/$pairs done" >&2
    done
done

echo
echo "parent $(git rev-parse --short "$parent_rev") vs new $(git rev-parse --short "$new_rev"), $pairs pairs (seeds $first_seed..$((first_seed + pairs - 1))), ${run_seconds}s runs"
printf '%-14s %-11s %28s %28s %9s %s\n' workload metric "parent median [q1, q3]" "new median [q1, q3]" "w/l/t" "> parent IQR"
for w in "${workloads[@]}"; do
    for m in "${metrics[@]}"; do
        awk -F'\t' -v w="$w" -v m="${m%% *}" -v better="${m##* }" '
            function quantile(a, n, p,    h, lo) {   # linear interpolation between order statistics
                h = (n - 1) * p + 1; lo = int(h)
                return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
            }
            function sorted(src, n, dst,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
            }
            $2 == w && $4 == m { if ($1 == "parent") p[$3] = $5 + 0; else c[$3] = $5 + 0 }
            END {
                for (k in p) if (k in c) {
                    n++; pv[n] = p[k]; cv[n] = c[k]
                    d = (better == "higher") ? p[k] - c[k] : c[k] - p[k]
                    if (d < 0) wins++; else if (d > 0) losses++; else ties++
                }
                if (n == 0) { printf "%-14s %-11s no complete pair\n", w, m; exit }
                sorted(pv, n, ps); sorted(cv, n, cs)
                pm = quantile(ps, n, .5); cm = quantile(cs, n, .5)
                iqr = quantile(ps, n, .75) - quantile(ps, n, .25)
                gap = cm - pm; if (gap < 0) gap = -gap
                printf "%-14s %-11s %10.3f [%7.3f, %7.3f] %10.3f [%7.3f, %7.3f] %3d/%d/%d %s\n", w, m,
                    pm, quantile(ps, n, .25), quantile(ps, n, .75),
                    cm, quantile(cs, n, .25), quantile(cs, n, .75),
                    wins, losses, ties, (gap > iqr ? "yes" : "no")
            }' "$results"
    done
done
exit "$bad"
