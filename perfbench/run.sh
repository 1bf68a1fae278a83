#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kernel-ws --seed 1 --seconds 20 --trace 0
#
# Every file the build or the run writes stays under .bench_build/ in
# the current directory: the Go build cache, temp files, the binary,
# output graphs and span traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOWORK=off
export GOFLAGS=

if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
