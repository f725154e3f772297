#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, from the root of the checkout. Everything the build and the
# run write (Go build cache, binary, span files) stays in .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$out/dgr-benchmark" .
exec "$out/dgr-benchmark" "$@"
