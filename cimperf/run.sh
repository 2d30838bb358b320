#!/usr/bin/env bash
# Builds the cimperf benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run from the repository root:
#
#   bash cimperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/serve" || ! -f "$root/cimperf/go.mod" ]]; then
	echo "cimperf: run from the root of a cimrev checkout (go.mod, internal/ and cimperf/ not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out"

# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/cimperf" && go build -o "$out/cimperf" .)
exec "$out/cimperf" "$@"
