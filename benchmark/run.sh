#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload write_sweep --seed 7 --seconds 25 --trace 0
#
# Builds the benchmark driver (which in turn builds cmd/dlogd) with every
# Go cache kept under .bench_build/ inside the checkout, then hands the
# arguments to it. Nothing outside the checkout is read or written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -root "$root" "$@"
