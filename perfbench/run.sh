#!/usr/bin/env bash
# Builds the PerFlow end-to-end benchmark from the source in this checkout
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pipeline-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Every build artifact, the Go build
# cache and the serve workload's scratch directories stay under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so nothing outside the
# checkout is written. Without the PerFlow sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export CGO_ENABLED=0

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
