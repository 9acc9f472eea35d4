#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one workload.
#
#   bash perfbench/run.sh --workload transfer-held --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, WAL
# directories and result files all live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
