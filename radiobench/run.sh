#!/usr/bin/env bash
# Builds radiobench from the sources of the checkout it runs in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash radiobench/run.sh --workload cd-grid --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the module cache and the traced run's Chrome traces
# stay under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

out="$PWD/.bench_build/radiobench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

go -C radiobench build -o "$out/radiobench" .
exec "$out/radiobench" --out "$out" "$@"
