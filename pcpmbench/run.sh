#!/usr/bin/env bash
# Builds the benchmark and the pcpm-shard worker from the sources of the
# checkout it is run from, then runs one workload:
#
#   bash pcpmbench/run.sh --workload kernel-rmat21 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches or writes
# goes under .bench_build/ there.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
# Keep the toolchain's cache, temporary files and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off
go build -C "$here" -o "$out/bin/pcpmbench" . >&2
go build -C "$here" -o "$out/bin/pcpm-shard" repro/cmd/pcpm-shard >&2
exec "$out/bin/pcpmbench" -work "$out" -shard-bin "$out/bin/pcpm-shard" "$@"
