#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the binary, the Go build cache, the toolchain's temporary files
# and its per-user configuration (telemetry counters).
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$bench" && go build -o "$out/dbdc-bench" .)
cd "$root"
exec "$out/dbdc-bench" "$@"
