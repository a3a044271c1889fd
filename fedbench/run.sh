#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash fedbench/run.sh --workload paper10 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, temporary files, run records and traces all
# stay under .bench_build/ in the working directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go -C "$here" build -o "$out/fedbench" .
exec "$out/fedbench" "$@"
