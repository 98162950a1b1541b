#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout, Go caches included, so nothing is read or written outside
# it) and runs it with the given arguments from the checkout root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# No VCS stamping: a checkout that is not a git repository, or one git
# refuses to read, must still build. The commit is passed in instead.
go build -C bench -buildvcs=false -o "$build/fwe2e" .
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
exec "$build/fwe2e" "$@"
