#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root. Everything the build and the run write — Go's
# build cache, temporary files, the binary, the scratch databases —
# stays under .bench_build/; traces of traced runs go to benchmark/out/.
#
#   bash benchmark/run.sh --workload point-steady --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                # every workload, untraced then traced
#   bash benchmark/run.sh -aa 10         # A/A self-check
set -euo pipefail

# The benchmark is its own module (benchmark/go.mod) that replaces the
# opdelta module with the checkout it sits in, so the build fails — and
# this script exits non-zero — where that checkout is missing.
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# HOME too, so that nothing the toolchain keeps per user (its telemetry
# counters, for one) lands outside the checkout.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	go build -C benchmark -o "$build/opdelta-benchmark" .
exec "$build/opdelta-benchmark" -workdir "$build/work" -out benchmark/out "$@"
