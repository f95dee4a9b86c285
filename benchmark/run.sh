#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload grid-verified --seed 1 --seconds 40 --trace 0
#
# Every build artefact (binary, Go build cache, module cache, tool
# configuration) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Fall back to the Go distribution's default install location when go is
# not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export XDG_CONFIG_HOME="$build/config"

go -C "$here" build -buildvcs=false -o "$build/tbbenchmark" .
exec "$build/tbbenchmark" "$@"
