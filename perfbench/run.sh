#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags. Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload assist-tcp --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/fleet" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a CoReDA checkout (go.mod, internal/fleet and perfbench/ are needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
go build -C "$root/perfbench" -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
