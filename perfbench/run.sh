#!/usr/bin/env bash
# Builds the pmcast benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload stream256 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products, the Go build cache and
# temporary files all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off

(cd "$root/perfbench" && go build -trimpath -o "$build/pmcast-perfbench" .)
exec "$build/pmcast-perfbench" "$@"
