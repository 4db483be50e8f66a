#!/usr/bin/env bash
# Builds the census benchmark and the censusd daemon from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Binaries, the Go build cache, traces
# and daemon job stores all stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set) inside the checkout. The last line of
# stdout is the JSON result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

# The build writes only diagnostics to stderr, so a failed build leaves
# stdout empty and the exit status non-zero.
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/censusd) >&2

exec "$out/bin/perfbench" -censusd "$out/bin/censusd" -workdir "$out" "$@"
