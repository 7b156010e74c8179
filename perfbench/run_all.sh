#!/bin/sh
# Run every workload once with the end-to-end metrics, from the checkout root:
#   sh perfbench/run_all.sh [seed] [seconds]
# Stops at the first workload whose output check fails.
seed=${1:-1}
seconds=${2:-30}
for workload in eval-exact eval-noisy export-md; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || exit 1
done
