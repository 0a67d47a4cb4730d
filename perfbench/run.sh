#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig1-compute --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, shared-memory ring directories) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
