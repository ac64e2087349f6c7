#!/usr/bin/env bash
# Builds the hdperf benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash hdperf/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# current directory: the Go build cache, the binary and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"

if [ ! -f "$root/go.mod" ]; then
	echo "hdperf: no go.mod in $root; run from the repository root" >&2
	exit 2
fi
go build -C "$root/hdperf" -o "$out/hdperf" . >&2
exec "$out/hdperf" "$@"
