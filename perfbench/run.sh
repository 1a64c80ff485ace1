#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-corrid --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache) stays under .bench_build/ in the working directory. Without the
# broker sources next to perfbench/ the build fails and so does the run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
