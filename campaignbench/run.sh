#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash campaignbench/run.sh --workload replay-rgma --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export GOMODCACHE="${build}/gomod"
export XDG_CONFIG_HOME="${build}/config"
export XDG_CACHE_HOME="${build}/cache"
export GOTOOLCHAIN=local
export TMPDIR="${build}/tmp"

(cd "${root}/campaignbench" && go build -o "${build}/campaignbench" .)
exec "${build}/campaignbench" "$@"
