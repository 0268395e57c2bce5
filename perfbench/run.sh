#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload pase-leftright --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry, CPU profiles and spans all stay under .bench_build/ in the
# repository root.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
