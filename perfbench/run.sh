#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it with
# the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload grid-main --seed 1 --seconds 45 --trace 0
#
# All build output (compiler cache, binary, the go command's telemetry
# counters, which it keeps under the user config directory) stays under
# .bench_build in the current directory, and the toolchain is never asked
# to download anything.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
