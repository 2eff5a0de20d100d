#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tpcc-collect --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# Build under a private name and rename, so a run never overwrites the
# binary another run is executing.
go -C perfbench build -o "$out/perfbench.$$" . >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
