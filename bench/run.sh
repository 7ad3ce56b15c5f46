#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# temp file under .bench_build/ in the current directory (the root of a
# checkout of this repository):
#
#   bash bench/run.sh --workload <engine-align|daemon-warm|daemon-cold|coord-sharded|all> \
#       --seed <n> [--seconds <s>] [--trace <0|1|spans-file>] [--repeat <n>]
#
# It fails without printing a result when the repository around bench/ is
# missing, since the benchmark imports it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/effibench" .)
exec "$out/effibench" "$@"
