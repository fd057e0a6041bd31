#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's
# source, then run it with the driver's arguments. Everything the build
# writes — the compiler's cache, its temporary files, the binary — stays
# under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds the repository it measures" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/pdlbench" ./bench
exec "$build/pdlbench" "$@"
