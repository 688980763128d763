#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# artifact (binary, Go build cache, temporary files) stays under .bench_build
# in the current directory, which must be the repository root.
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 12 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/work"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export PERFBENCH_WORK="$out/work"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
bin="$out/perfbench"
(cd perfbench && go build -o "$bin" .) >&2
exec "$bin" "$@"
