#!/usr/bin/env bash
# Builds the benchmark and the pnut-server it drives from the checkout
# it is run in, then runs one workload:
#
#   bash layerbench/run.sh --workload design_sweep --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# goes under .bench_build/ there; the Go build cache too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/layerbench"
mkdir -p "$out/gocache" "$out/gotmp"
# XDG_CONFIG_HOME keeps the toolchain's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go -C "$root/layerbench" build -o "$out/layerbench" . >&2
go -C "$root/layerbench" build -o "$out/pnut-server" repro/cmd/pnut-server >&2
exec "$out/layerbench" -server "$out/pnut-server" "$@"
