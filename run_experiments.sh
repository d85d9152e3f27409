#!/bin/sh
# Regenerates every paper table/figure into results/ (or into
# $OVERGEN_RESULTS_DIR) through the `overgen-bench <experiment>` dispatcher,
# stopping at the first experiment that fails.
# Each run publishes its own artifacts atomically (temp file + rename):
#   results/<name>.txt          rendered table (also printed below)
#   results/<name>.json         run manifest (seed, iters, wall time, metrics)
#   results/<name>.trace.jsonl  JSONL event trace, when OVERGEN_TRACE=1
# OVERGEN_DSE_ITERS scales DSE effort (EXPERIMENTS.md runs used 100).
# Summarize a trace with: $B/trace-summary results/<name>.trace.jsonl
set -eu
cargo build -q --release -p overgen-bench
B=${CARGO_TARGET_DIR:-./target}/release
for name in table1 table2 table3 table4 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 ablations; do
    echo "== $name =="
    "$B/overgen-bench" "$name"
done
echo ALL_DONE
