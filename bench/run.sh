#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache
# included, in .bench_build at its root) and runs it with the arguments
# given. The benchmark runs from bench/, so out/ lands beside this file.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p ../.bench_build
build="$(cd ../.bench_build && pwd)"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" .
exec "$build/bench" "$@"
