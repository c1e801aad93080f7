#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build writes stays under .bench_build/ in
# the checkout, so the command needs no writable home directory and leaves
# nothing behind elsewhere.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/p3bench-bench ./bench
exec .bench_build/p3bench-bench "$@"
