#!/usr/bin/env bash
# Builds the stack benchmark from source and runs it from the root of a
# checkout:
#
#   bash stackbench/run.sh --workload bfs-rmat --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under the build
# directory inside the checkout (CARGO_TARGET_DIR when set, else
# .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/spans"

export GOCACHE=$build/gocache
export GOTMPDIR=$build
export GOPATH=$build/gopath
export GOTOOLCHAIN=local

(cd "$root/stackbench" && go build -o "$build/stackbench" .)
exec "$build/stackbench" --spans "$build/spans" "$@"
