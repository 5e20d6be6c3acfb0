#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the root of
# the repository:
#
#   bash benchmark/bench.sh --workload reuse_warm --seed 1 --seconds 15 --trace 0
set -euo pipefail

bin="$(bash "$(dirname "$0")/build.sh")"
exec "$bin" "$@"
