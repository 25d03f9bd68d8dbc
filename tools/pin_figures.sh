#!/bin/sh
# Regenerate the pinned figure and table outputs.
#
#   tools/pin_figures.sh BUILD_DIR [OUT_DIR]
#
# Runs the 14 figure, table and ablation binaries of BUILD_DIR/bench
# one after another at their default windows, with --jobs 4 and one
# fresh result cache shared by all of them, and writes each binary's
# stdout to OUT_DIR/<binary>.txt (default tests/data/figures).  The
# shared cache only saves time: every binary prints the same bytes
# with --no-cache.
#
# CI regenerates into a scratch directory and diffs it against the
# committed pins.  A change that moves a figure on purpose re-pins it
# with this script in a separate commit that says why.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BUILD_DIR [OUT_DIR]" >&2
    exit 1
fi
build=$1
out=${2:-tests/data/figures}
mkdir -p "$out"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

for bench in \
    bench_ablation_shaker bench_ablation_sync \
    bench_fig04_perf_degradation bench_fig05_energy_savings \
    bench_fig06_energy_delay bench_fig07_summary \
    bench_fig08_context_perf bench_fig09_context_energy \
    bench_fig10_energy_vs_slowdown bench_fig11_ed_vs_slowdown \
    bench_fig12_overhead bench_mcd_penalty \
    bench_table3_coverage bench_table4_instrumentation; do
    "$build/bench/$bench" --jobs 4 --cache "$scratch/cache.csv" \
        > "$out/$bench.txt"
done
