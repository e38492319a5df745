#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Usage, from the root of the checkout:
#   bash perfbench/run.sh --workload records_2wrs --seed 1 --seconds 20 --trace 0
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
