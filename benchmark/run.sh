#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# the command BENCHMARK.json names. Everything the build writes (the binary,
# the Go build cache, temporary files, the toolchain's settings) stays under
# .bench_build/ in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/model.json" ]]; then
	# A directory with the benchmark but not the program: refuse before
	# starting the toolchain, so no result line and no process.
	echo "benchmark/run.sh: $root does not hold the smat module (go.mod, model.json)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With telemetry in its default "local" mode the first go command in a fresh
# config directory forks a detached child that outlives it. Mode "off" forks
# nothing: the build is the only process run.sh starts before the benchmark.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/smat-benchmark" ./benchmark
exec "$build/smat-benchmark" "$@"
