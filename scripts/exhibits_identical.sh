#!/usr/bin/env bash
# Do the deterministic paper exhibits print the same at <rev> as in the
# working tree? A PR that claims to change no behaviour the figures see
# (a deletion, a refactor) states this with one command:
#
#   scripts/exhibits_identical.sh <rev>
#
# Exports <rev> with `git archive` under .bench_build/ (as bench_pairs.sh
# does), builds bpw-bench's binaries on both sides, runs each exhibit in
# a scratch directory (they write results/ relative to it, so the repo's
# results/ is untouched) and diffs stdout and the files written. Exits 1
# on any difference.
#
#   scripts/exhibits_identical.sh --committed
#
# Are the committed results/ the working tree's output? Builds the tree,
# runs the same exhibits plus fig2_batch_amortization in a scratch
# directory, and diffs each one's stdout against results/<exhibit>.txt
# and each file it writes against the one in results/. Only
# fig2_simulated.csv of fig2_batch_amortization is compared: its stdout
# and fig2_real.csv are wall-clock. Exits 1 on any difference; to
# regenerate, copy the scratch outputs over results/ (run_all_experiments.sh).
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
exhibits="fig6_altix_scaling fig7_poweredge_scaling fig8_overall table2_queue_size
    table3_batch_threshold robustness_sweep ablation_queue_design"

root=$(git rev-parse --show-toplevel)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

build() {
    CARGO_TARGET_DIR=$1/target cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" -p bpw-bench --bins
}

# run <side> <bin> <tree>: run <tree>'s <bin> in $out/<side>/<bin>.
run() {
    mkdir -p "$out/$1/$2"
    (cd "$out/$1/$2" && "$3/target/release/$2" >stdout)
}

status=0
if [ "$1" = --committed ]; then
    build "$root"
    for bin in $exhibits fig2_batch_amortization; do
        run tree "$bin" "$root"
        dir=$out/tree/$bin
        if [ "$bin" = fig2_batch_amortization ]; then
            pairs="results/fig2_simulated.csv:results/fig2_simulated.csv"
        else
            pairs="stdout:results/$bin.txt"
            for f in "$dir"/results/*; do
                pairs="$pairs results/${f##*/}:results/${f##*/}"
            done
        fi
        same=1
        for pair in $pairs; do
            if ! diff "$root/${pair#*:}" "$dir/${pair%%:*}" >"$out/diff"; then
                echo "$bin: ${pair#*:} DIFFERS from the tree's output"
                head -n 40 "$out/diff"
                same=0
                status=1
            fi
        done
        [ "$same" = 1 ] && echo "$bin: results/ is the tree's output"
    done
    exit $status
fi

rev=$1
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
parent=$root/.bench_build/pairs/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for side in "$parent" "$root"; do
    build "$side"
done

for bin in $exhibits; do
    run parent "$bin" "$parent"
    run change "$bin" "$root"
    if diff -r "$out/parent/$bin" "$out/change/$bin" >"$out/$bin.diff"; then
        echo "$bin: identical"
    else
        echo "$bin: DIFFERS"
        head -n 40 "$out/$bin.diff"
        status=1
    fi
done
exit $status
