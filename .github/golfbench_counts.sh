#!/bin/sh
# Prints the exact work counts of a short traced golfbench run of every
# workload, one "<workload> <metric> <value> <unit>" line each. The counts do
# not depend on host speed or run length, so CI diffs them against
# .github/golfbench_counts.txt. Regenerate that file with
#   sh .github/golfbench_counts.sh > .github/golfbench_counts.txt
set -eu
counts='^(runtime\.(ticks|instrs|parks|wakes|spawned)|heap\.(allocs|frees|swept_objects)|core\.(cycles|replayed|objects_marked|pointer_traversals|mark_iterations|liveness_checks|reports|reclaimed)) '
for w in service_leak heap_churn corpus_sweep; do
  cargo run --quiet --release --locked --offline --manifest-path golfbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 1 | grep -E "$counts" | sed "s/^/$w /"
done
