#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the harness from source
# inside the checkout, then run it with the arguments given.
#
#   bash benchmark/run.sh --workload wire_ingest --seed 7 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files, the
# toolchain's own counters, the binary) goes under .bench_build/ in the
# checkout; results, span files and scratch data go under benchmark/out/.
# Nothing outside the checkout is read for configuration or written. Run from
# the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core ]]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (no go.mod and internal/core here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/pbox-benchmark" ./benchmark
exec "$build/pbox-benchmark" "$@"
