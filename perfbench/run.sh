#!/usr/bin/env bash
# Builds the Redbud benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build artifact goes under
# .bench_build/ there; the Go build and module caches included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off \
	GOEXPERIMENT=synctest
(cd "$root/perfbench/_src" && go build -o "$out/redbud-perfbench" .) >&2
exec "$out/redbud-perfbench" "$@"
