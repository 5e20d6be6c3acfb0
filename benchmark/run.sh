#!/usr/bin/env bash
# Runs the whole benchmark: every workload, untraced and traced, for the
# default seed and one other, and leaves under benchmark/out/ one result file
# per run, one trace file per workload and seed, and the rendered layer tables
# (layers.md). Run from the root of the repository:
#
#   bash benchmark/run.sh [seconds]
#
# Two such sets, from two commits or from one, compare with
#   bash benchmark/bench.sh -compare <dir-a> <dir-b>
set -euo pipefail

seconds="${1:-15}"
out=benchmark/out
bin="$(bash benchmark/build.sh)"

rm -rf "$out"
mkdir -p "$out"
: > "$out/layers.md"
for seed in 1 2; do
	dir="$out/seed$seed"
	"$bin" -workload all -seed "$seed" -seconds "$seconds" -trace 0 -out "$dir" | tee "$dir.e2e.txt"
	"$bin" -workload all -seed "$seed" -seconds "$seconds" -trace 1 -out "$dir" | tee "$dir.layers.txt"
	for trace in "$dir"/*.trace.jsonl; do
		"$bin" -table "$trace" | sed "s/^### /### seed $seed, /" >> "$out/layers.md"
	done
done
echo "results, traces and layers.md are under $out/"
