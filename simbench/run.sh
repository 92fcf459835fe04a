#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash simbench/run.sh --workload strict-bulk --seed 1 --seconds 35 --trace 0
#
# Everything the build and the benchmark write (build cache, go command
# state, binary, span files) stays under .bench_build/simbench/.
set -euo pipefail
out="$PWD/.bench_build/simbench"
mkdir -p "$out/tmp" "$out/home"
(cd simbench && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local go build -o "$out/simbench" .)
exec "$out/simbench" --out "$out" "$@"
