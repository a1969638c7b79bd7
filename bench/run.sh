#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything written — Go's build cache, the binary, the
# grid's data files — stays under .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its env file and telemetry counters in the user's
# configuration directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd bench && go build -o "$build/ssdb-bench" .)
exec "$build/ssdb-bench" -dir "$build" "$@"
