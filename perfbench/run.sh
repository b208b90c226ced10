#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and any trace output stay under
# .bench_build/ in the checkout. The module replaces rottnest with the
# checkout itself, so nothing is fetched; a directory without the
# repository's sources fails to build and exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
