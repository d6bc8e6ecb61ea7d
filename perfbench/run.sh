#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root: the Go build cache, the binary, temporary files and
# traces. HOME points there too, so the go command keeps its own files
# (telemetry counters, module cache) inside as well.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export HOME="$out/home" GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --dir "$out" "$@"
