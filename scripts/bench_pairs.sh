#!/usr/bin/env bash
# Alternating parent/working-tree perfbench runs: a perf claim on this
# host is pairs, not one run (single runs swing up to 3x with hypervisor
# steal; see README "Performance").
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs>
#
# Builds <parent-rev> from a `git archive` export under .bench_build/
# (no worktree is registered in .git) and the working tree in place, then
# runs <pairs> pairs, alternating which side goes first, and prints every
# value, the per-pair ratio, wins, and each side's median and quartiles.
#
# Environment: METRIC (default throughput_ops_s; any end-to-end name of
# BENCHMARK.json, which also says whether lower is better), SECONDS_PER_RUN
# (default 24, BENCHMARK.json's run_seconds).
set -euo pipefail

if [ $# -ne 3 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3
metric=${METRIC:-throughput_ops_s}
seconds=${SECONDS_PER_RUN:-24}

root=$(git rev-parse --show-toplevel)
lower=0
if grep -A3 "\"name\": \"$metric\"" "$root/BENCHMARK.json" | grep -q '"better": "lower"'; then
    lower=1
fi
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
parent=$root/.bench_build/pairs/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for side in "$parent" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$side/perfbench/Cargo.toml"
done

# One run; prints the metric's value. A run that is not correct is fatal.
run() {
    local out
    out=$(cd "$1/perfbench" && ./target/release/bpw-perfbench \
        --workload "$workload" --seconds "$seconds" --trace 0 2>&1)
    grep -q '"correct":true' <<<"$out" || {
        echo "run in $1 was not correct:" >&2
        echo "$out" >&2
        exit 1
    }
    awk -v m="$metric" '$1 == m { print $2; exit }' <<<"$out"
}

# min, quartiles and max of the values on stdin.
summary() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  pos, lo) {
            pos = (NR - 1) * p + 1; lo = int(pos)
            return lo < NR ? v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) : v[NR]
        }
        END { printf "min %g  q1 %g  median %g  q3 %g  max %g\n", v[1], q(.25), q(.5), q(.75), v[NR] }'
}

echo "# $metric on $workload: parent $sha vs working tree, $pairs pairs, --seconds $seconds"
parent_vals=() change_vals=() ratios=()
wins=0 losses=0
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        order="parent first"
        p=$(run "$parent")
        c=$(run "$root")
    else
        order="change first"
        c=$(run "$root")
        p=$(run "$parent")
    fi
    ratio=$(awk -v p="$p" -v c="$c" 'BEGIN { printf "%.3f", c / p }')
    better=$(awk -v p="$p" -v c="$c" -v lower="$lower" \
        'BEGIN { print (c == p) ? 0 : ((c > p) != (lower + 0 == 1)) ? 1 : -1 }')
    [ "$better" -eq 1 ] && wins=$((wins + 1))
    [ "$better" -eq -1 ] && losses=$((losses + 1))
    parent_vals+=("$p") change_vals+=("$c") ratios+=("$ratio")
    echo "pair $i ($order): parent $p  change $c  change/parent $ratio"
done
echo "change wins $wins, loses $losses of $pairs"
echo "parent: $(printf '%s\n' "${parent_vals[@]}" | summary)"
echo "change: $(printf '%s\n' "${change_vals[@]}" | summary)"
echo "ratio:  $(printf '%s\n' "${ratios[@]}" | summary)"
