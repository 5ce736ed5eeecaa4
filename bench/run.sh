#!/usr/bin/env bash
# Builds charbench from the checkout's sources and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (build cache, binary, temporary
# stores and queues) stays under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -buildvcs=false -o "$build/charbench" ./charbench)
exec "$build/charbench" "$@"
