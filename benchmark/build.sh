#!/usr/bin/env bash
# Builds the benchmark from source and prints the path of the binary. Run from
# the root of the repository. The build cache, the module cache and the binary
# all stay under .bench_build/ in the working directory, so building reads and
# writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$build/cvbench" .)
echo "$build/cvbench"
