#!/usr/bin/env bash
# Builds the fabric benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload steady_forward --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, and the traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" "$@"
