#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#	bash benchmark/run.sh --workload vec2d-10k --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/mccatch-bench" .)
exec "$out/mccatch-bench" "$@"
