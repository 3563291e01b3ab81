#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout (BENCHMARK.json's command); every file it writes — build
# cache, binary, broker data directories — stays under ./.bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/eventbench" .
exec "$out/eventbench" "$@"
