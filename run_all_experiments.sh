#!/bin/sh
# Regenerate every table and figure of the paper plus the ablation.
# Text output lands in results/*.txt, CSV series in results/*.csv.
set -e
mkdir -p results
for bin in fig2_batch_amortization fig6_altix_scaling fig7_poweredge_scaling \
           table2_queue_size table3_batch_threshold fig8_overall \
           real_contention ablation_queue_design \
           robustness_sweep; do
    echo "== $bin =="
    cargo run --release -p bpw-bench --bin "$bin" | tee "results/$bin.txt"
done
