#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given flags. Run from the repository root:
#
#   bash bench/run.sh --workload stream_1m --seed 42 --seconds 25 --trace 0
#
# Go's build cache, temporary files and telemetry counters (kept under
# the user config directory) stay under .bench_build, so the benchmark
# writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/litegpu-bench" .)
exec "$out/litegpu-bench" "$@"
