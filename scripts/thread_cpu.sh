#!/usr/bin/env bash
# CPU time per thread-name group of one process over an interval, read from
# /proc/<pid>/task/*/stat before and after (utime + stime, in clock ticks).
# A profiler-free way to see which threads a request's CPU goes to.
#
#   scripts/thread_cpu.sh <pid> <seconds> [ops]
#
# Prints one line per group of threads sharing a name (the kernel keeps the
# first 15 bytes, so `rpc-node-1-worker-7` groups as `rpc-node-1-work`),
# busiest first: the name, how many threads it has, the ticks they used,
# that time in ms (ticks are USER_HZ = 100 per second on Linux), and, given
# `ops` (operations the process completed during the interval), µs per op.
# Threads that exit mid-interval lose their ticks; threads born in it count
# from zero.
#
# Only bash and awk are used.

set -euo pipefail

usage() {
    echo "usage: $0 <pid> <seconds> [ops]" >&2
    exit 2
}

[ $# -ge 2 ] && [ $# -le 3 ] || usage
pid=$1
seconds=$2
ops=${3:-0}
[ -d "/proc/$pid/task" ] || { echo "no process $pid" >&2; exit 1; }

# One `<snapshot> <tid> <ticks> <name>` line per live thread. The name sits
# between the first `(` and the last `)`: it may hold spaces.
snapshot() {
    local tag=$1 f line
    for f in /proc/"$pid"/task/*/stat; do
        { read -r line <"$f"; } 2>/dev/null || continue
        printf '%s %s\n' "$tag" "$line"
    done
}

{
    snapshot before
    sleep "$seconds"
    snapshot after
} | awk -v ops="$ops" -v seconds="$seconds" '
    {
        tag = $1
        line = substr($0, length(tag) + 2)
        lp = index(line, "(")
        for (rp = length(line); rp > lp; rp--)
            if (substr(line, rp, 1) == ")") break
        tid = substr(line, 1, lp - 2)
        name = substr(line, lp + 1, rp - lp - 1)
        # Fields after the name: state is 3, utime 14, stime 15.
        split(substr(line, rp + 2), f, " ")
        ticks = f[12] + f[13]
        if (tag == "before") { start[tid] = ticks; next }
        used = ticks - start[tid]
        group[name] += used
        threads[name]++
        total += used
    }
    END {
        for (name in group) order[++n] = name
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && group[order[j]] > group[order[j - 1]]; j--) {
                t = order[j]; order[j] = order[j - 1]; order[j - 1] = t
            }
        printf "%-16s %8s %8s %10s", "threads", "count", "ticks", "cpu_ms"
        if (ops > 0) printf " %12s", "us_per_op"
        printf "\n"
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "%-16s %8s %8d %10d", name, "×" threads[name], group[name], group[name] * 10
            if (ops > 0) printf " %12.1f", group[name] * 10000 / ops
            printf "\n"
        }
        printf "%-16s %8s %8d %10d", "total", "", total, total * 10
        if (ops > 0) printf " %12.1f", total * 10000 / ops
        printf "   (%.0f%% of one CPU over %ss)\n", total / seconds, seconds
    }'
