#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-small --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that root: the Go build cache, the
# binary and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
