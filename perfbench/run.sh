#!/usr/bin/env bash
# Builds trid and the benchmark from the checkout it is run in, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload warm-query --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binaries,
# cached base graphs, spans, result files) goes under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/trid" ./cmd/trid >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -trid "$out/bin/trid" -out "$out" "$@"
