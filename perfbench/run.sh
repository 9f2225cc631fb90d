#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload oneshot-integrity --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/ at the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# The Go build cache, module path, user config (where the toolchain keeps
# its telemetry counters) and temporary files all live under .bench_build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"
