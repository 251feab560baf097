#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash _opmbench/run.sh --workload grid-tableii --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's config and telemetry
# files, temporary files (the serve-mix journal) and traced-run spans all
# stay under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/opmbench" .
cd "$root"
exec "$build/opmbench" --spans-dir "$build/spans" "$@"
