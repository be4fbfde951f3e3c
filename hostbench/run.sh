#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash hostbench/run.sh --workload sort --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, build cache, Go's own config and
# telemetry files) stays under .bench_build/ in the current directory. The
# build fails, and the script exits nonzero, when the simulator's sources
# are not beside hostbench/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
