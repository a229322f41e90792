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
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,12p' "$0" >&2
    exit 2
fi
rev=$1
exhibits="fig6_altix_scaling fig7_poweredge_scaling fig8_overall table2_queue_size
    table3_batch_threshold robustness_sweep ablation_queue_design"

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
parent=$root/.bench_build/pairs/$sha
if [ ! -d "$parent" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$sha" | tar -x -C "$parent"
fi
for side in "$parent" "$root"; do
    CARGO_TARGET_DIR=$side/target cargo build --release --offline --quiet \
        --manifest-path "$side/Cargo.toml" -p bpw-bench --bins
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for bin in $exhibits; do
    for side in parent change; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$root; fi
        mkdir -p "$out/$side/$bin"
        (cd "$out/$side/$bin" && "$dir/target/release/$bin" >stdout)
    done
    if diff -r "$out/parent/$bin" "$out/change/$bin" >"$out/$bin.diff"; then
        echo "$bin: identical"
    else
        echo "$bin: DIFFERS"
        head -n 40 "$out/$bin.diff"
        status=1
    fi
done
exit $status
