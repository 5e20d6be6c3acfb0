#!/usr/bin/env bash
# Table 1 as a distribution over workload seeds. Runs the default cvsim A/B at
# every seed of a range and prints, for each percentage row of Table 1, the
# median, the interquartile range (linear-interpolation quartiles) and the
# extremes over the seeds, as a Markdown table. From the repository root:
#
#   bash cmd/cvsim/sweep.sh             # scale 0.25, seeds 1-20
#   bash cmd/cvsim/sweep.sh 0.5 1 5     # scale 0.5, seeds 1-5
#
# Each run is deterministic, so the table is too. Runs go one at a time: a
# scale-0.5 run holds both arms in memory at once (about 0.5 GB).
set -euo pipefail

scale="${1:-0.25}"
first="${2:-1}"
last="${3:-20}"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
(cd "$(dirname "$0")" && go build -o "$dir/cvsim" .)

for seed in $(seq "$first" "$last"); do
	"$dir/cvsim" -scale "$scale" -seed "$seed" |
		awk -v seed="$seed" '/Improvement/ { v = $NF; sub(/%$/, "", v); $NF = ""; sub(/ +$/, ""); print $0 "\t" seed "\t" v }'
done >"$dir/rows.tsv"

echo "| row (scale $scale, seeds $first-$last) | median | IQR (Q1-Q3) | min-max |"
echo "|---|---:|---:|---:|"
cut -f1 "$dir/rows.tsv" | awk '!seen[$0]++' | while IFS= read -r row; do
	awk -F'\t' -v row="$row" '$1 == row { print $3 }' "$dir/rows.tsv" | sort -g |
		awk -v row="$row" '
			{ v[NR - 1] = $1 }
			function q(p,   h, i) {
				h = (NR - 1) * p
				i = int(h)
				return (i + 1 < NR) ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[i]
			}
			END {
				printf "| %s | %.2f%% | %.2f%% (%.2f-%.2f) | %.2f-%.2f |\n",
					row, q(0.5), q(0.75) - q(0.25), q(0.25), q(0.75), v[0], v[NR - 1]
			}'
done
