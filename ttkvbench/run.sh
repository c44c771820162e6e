#!/usr/bin/env bash
# Builds ttkvd and the benchmark harness from this checkout into
# .bench_build, then runs the harness with the given arguments.
#
#   bash ttkvbench/run.sh --daemon-flags "..." --workload logger|ingest|repair \
#       --seed N --seconds S --trace 0|1
#
# --daemon-flags must set the flags BENCHMARK.json's command sets.
#
# Run it from the checkout root. Everything it writes (the Go build cache,
# the binaries, the generated inputs, the daemons' logs) stays under
# .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off
# Go telemetry defaults to "local", in which the go command may start a
# detached upload process that outlives this script. The mode is read from
# this file only (the GOTELEMETRY variable does not set it).
echo off >"$out/home/go/telemetry/mode"

go build -o "$out/ttkvd" ./cmd/ttkvd
(cd ttkvbench && go build -o "$out/ttkvbench" .)
exec "$out/ttkvbench" --bin "$out/ttkvd" "$@"
