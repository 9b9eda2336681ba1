#!/usr/bin/env bash
# Builds the benchmark, and with it the simulator, from this checkout into
# .bench_build, then runs it with the given arguments. Run it from the
# checkout root:
#
#   bash pubsbench/run.sh --workload serve-mix --seed 1 --seconds 12 --trace 0
#   bash pubsbench/run.sh --steady 10            # spread of every metric
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Keep the Go toolchain's caches and temporary files inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd pubsbench && go build -o "$out/pubsbench" .)
exec "$out/pubsbench" "$@"
