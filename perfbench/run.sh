#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporary files) lands under $CARGO_TARGET_DIR, default
# .bench_build, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
