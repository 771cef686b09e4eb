#!/usr/bin/env bash
# Builds tdserved and the benchmark driver from this checkout's sources
# into .bench_build/, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. The Go build cache and temporary
# files stay under .bench_build/ as well.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/tdserved" ./cmd/tdserved
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -tdserved "$out/bin/tdserved" "$@"
