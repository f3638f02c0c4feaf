#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash vgasperf/run.sh --workload des-storm --seed 1 --seconds 10 --trace 0
#
# Every build artefact (the vgasperf binary and its reference kernel,
# vgasperf-ref; Go build cache; temp files) stays under
# .bench_build in the current directory. Without the repository's own
# go.mod one level up, the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off

go -C "$here" build -trimpath -o "$build/vgasperf" .
go -C "$here" build -trimpath -o "$build/vgasperf-ref" ./refkernel
exec "$build/vgasperf" "$@"
