#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload crash-corpus --seed 0 --seconds 20 --trace 0
#
# Run it from the repository root.  The Go build cache and the binary
# live in .bench_build/ under the current directory, so a run reads and
# writes nothing outside the checkout but the Go toolchain itself.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The commit printed with every run comes from the build's VCS stamp; a
# checkout whose version control cannot be read builds without one.
go -C "$root/perfbench" build -o "$out/perfbench" . >&2 ||
	go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
