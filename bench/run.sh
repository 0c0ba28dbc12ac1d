#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark and the server from the
# sources of this checkout, keeps every build product inside the checkout
# (.bench_build/), and hands the arguments to the benchmark:
#
#   bash bench/run.sh --workload feedback-paper --seed 1 --seconds 20 --trace 0
#
# In a directory without the module (no go.mod) the build fails and so does
# this script, before any result is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
go build -o "$build/cbirserver" ./cmd/cbirserver
exec "$build/bench" -server "$build/cbirserver" -out "$build/out" "$@"
