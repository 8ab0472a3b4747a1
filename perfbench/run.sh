#!/usr/bin/env bash
# Builds the benchmark and claired from source, then runs one workload.
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the Go
# tool's own configuration and trace files stay under .bench_build/ in the
# working directory; the toolchain is pinned to the local one and module
# downloads are off.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/claired" repro/cmd/claired
) >&2

exec "$build/bin/perfbench" -claired "$build/bin/claired" -trace-dir "$build/trace" "$@"
