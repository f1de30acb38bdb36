#!/usr/bin/env bash
# Builds topk-serve and the served-path benchmark from this checkout, then
# runs the benchmark with the arguments given. Build caches, binaries,
# temporary index directories and span files all land under .bench_build/
# at the checkout root.
#
#   bash servebench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root" && go build -o "$work/bin/topk-serve" ./cmd/topk-serve)
(cd "$root/servebench" && go build -o "$work/bin/servebench" .)
exec "$work/bin/servebench" -server "$work/bin/topk-serve" -work "$work" "$@"
