#!/usr/bin/env bash
# Alternating parent/working-tree perfbench runs: a perf claim on this
# host is pairs, not one run (single runs swing up to 3x with hypervisor
# steal; see README "Performance").
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs>
#
# Builds <parent-rev> from a `git archive` export under .bench_build/
# (no worktree is registered in .git) and the working tree in place, then
# runs <pairs> pairs, alternating which side goes first. Run length and
# the end-to-end metrics (name, direction, bound) come from BENCHMARK.json;
# every run's value of every metric is printed, then per metric the wins,
# each side's quartiles, the quartiles of change/parent, and where the
# median ratio falls against the metric's bound.
set -euo pipefail

if [ $# -ne 3 ]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3

root=$(git rev-parse --show-toplevel)
seconds=$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$root/BENCHMARK.json")
# "name better bound" per end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '/"end_to_end"/ { on = 1 } on && /\]/ { exit }
    on { gsub(/[",]/, "")
         if ($1 == "name:") n = $2
         if ($1 == "better:") b = $2
         if ($1 == "bound:") print n, b, $2 }' "$root/BENCHMARK.json")

sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
parent=$root/.bench_build/pairs/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for side in "$parent" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$side/perfbench/Cargo.toml"
done

# Min, quartiles, max and verdict per metric over the pairs completed so
# far; runs at exit, so a failed run still leaves the earlier pairs' summary.
records=$(mktemp)
report() {
    awk '
        function sorted(a, n,  i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function q(a, n, p,  pos, lo) {
            pos = (n - 1) * p + 1; lo = int(pos)
            return lo < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[n]
        }
        function line(label, a, n) {
            sorted(a, n)
            printf "  %-7s min %g  q1 %g  median %g  q3 %g  max %g\n", label, a[1], q(a, n, .25), q(a, n, .5), q(a, n, .75), a[n]
        }
        FNR == NR { name[++nm] = $1; lower[$1] = ($2 == "lower"); bound[$1] = $3; next }
        { v[$1, $2, $3] = $4; if ($1 > last) last = $1 }
        END {
            for (k = 1; k <= nm; k++) {
                m = name[k]; n = wins = losses = 0
                for (i = 1; i <= last; i++) {
                    if (!((i, "parent", m) in v) || !((i, "change", m) in v)) continue
                    n++; P[n] = v[i, "parent", m]; C[n] = v[i, "change", m]
                    R[n] = P[n] ? C[n] / P[n] : 1
                    if (C[n] != P[n]) { if ((C[n] > P[n]) != lower[m]) wins++; else losses++ }
                }
                if (!n) exit
                printf "%s (%s is better, bound %g): change wins %d, loses %d of %d\n", m, lower[m] ? "lower" : "higher", bound[m], wins, losses, n
                line("parent", P, n); line("change", C, n); line("ratio", R, n)
                worse = lower[m] ? q(R, n, .5) - 1 : 1 - q(R, n, .5)
                if (worse > bound[m]) verdict = "WORSE than the bound"
                else if (worse < 0 && wins * 10 >= n * 9) verdict = "better"
                else if (q(R, n, .75) - q(R, n, .25) > bound[m]) verdict = "unresolved: ratios spread wider than the bound"
                else verdict = "inside the bound"
                printf "  median change/parent %.3f: %s\n", q(R, n, .5), verdict
            }
        }' <(echo "$metrics") "$records"
    rm -f "$records"
}
trap report EXIT

# One run; appends "<pair> <side> <metric> <value>" per end-to-end metric
# and prints the values on one line. A run that is not correct is fatal
# (call it in the main shell, not in $(...), so that the exit is the script's).
run() {
    local pair=$1 side=$2 dir=$3 out
    out=$(cd "$dir/perfbench" && ./target/release/bpw-perfbench \
        --workload "$workload" --seconds "$seconds" --trace 0 2>&1) || true
    grep -q '"correct":true' <<<"$out" || {
        echo "pair $pair: $side run was not correct:" >&2
        echo "$out" >&2
        exit 1
    }
    awk -v pair="$pair" -v side="$side" -v rec="$records" '
        FNR == NR { want[$1]; next }
        $1 in want { print pair, side, $1, $2 >> rec; printf "  %s %s", $1, $2 }
        END { print "" }' <(echo "$metrics") - <<<"$out"
}

echo "# $workload: parent $sha vs working tree, $pairs pairs, --seconds $seconds"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
        printf 'pair %s %s:' "$i" "$side"
        run "$i" "$side" "$dir"
    done
done
