#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build writes stays under .bench_build/ in the checkout: the
# build cache, and GOPATH because go makes $GOPATH/pkg/mod even for a module
# without outside dependencies. The toolchain is the installed one, never a
# download.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/go-path"
export GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/smartmem-bench" . >&2
exec "$root/.bench_build/smartmem-bench" "$@"
