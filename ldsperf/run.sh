#!/usr/bin/env bash
# Builds the ldsperf benchmark from the checkout's sources and runs it with the
# given arguments (see ldsperf/README.md). Run from the repository root:
#
#	bash ldsperf/run.sh --workload sim-read-4k --seed 1 --seconds 10 --trace 0
#
# Every file the build or the run writes stays under .bench_build/ in the
# current directory (or $CARGO_TARGET_DIR when that is set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOTELEMETRY=off GOENV=off
unset GOGC GOMAXPROCS GODEBUG

(cd "$root/ldsperf" && go build -o "$out/ldsperf" .)
exec "$out/ldsperf" -spans "$out/spans" "$@"
