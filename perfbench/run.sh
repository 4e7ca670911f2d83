#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload gen-12 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout (Go build cache included). Exits non-zero without a
# result line if the build or the run fails.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOTELEMETRY=off

if ! go -C perfbench build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
