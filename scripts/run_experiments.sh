#!/usr/bin/env bash
# Regenerate every figure and ablation of the paper's evaluation.
# Results print to stdout and CSVs land in bench_out/.
set -euo pipefail
cd "$(dirname "$0")/.."

PES="${PES:-1,2,4}"
SCALE_TABLE="${SCALE_TABLE:-500}"   # divides 10M updates/core (Figs. 3-4)
SCALE_PERM="${SCALE_PERM:-200}"     # divides 1M elements/core (Fig. 5)
REPS="${REPS:-2}"

cargo build --release -p lamellar-bench --bins

run() { echo; echo ">>> $*"; "$@"; }

run ./target/release/fig2_bandwidth --max-mb 4 --budget-mb 8
run ./target/release/fig3_histogram   --pes "$PES" --scale "$SCALE_TABLE" --reps "$REPS"
run ./target/release/fig4_indexgather --pes "$PES" --scale "$SCALE_TABLE" --reps "$REPS"
run ./target/release/fig5_randperm    --pes "$PES" --scale "$SCALE_PERM"  --reps "$REPS"

run ./target/release/ablation_agg_threshold --pes 2 --scale 2000
run ./target/release/ablation_batch_size    --pes 2 --scale 2000
run ./target/release/ablation_atomic_kind   --pes 2 --scale 2000
run ./target/release/ablation_executor
run ./target/release/ablation_msgpath       --msgs 200000 --payload 64
run ./target/release/ablation_faultplane    --msgs 50000  --payload 64
