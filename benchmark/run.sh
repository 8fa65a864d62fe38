#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the checkout root and runs it
# from there. Everything the Go toolchain writes (build cache included) stays
# inside the checkout. Arguments are passed through; see benchmark/README.md.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$bench" && go build -o "$out/clockbench" .)
cd "$root"
exec "$out/clockbench" "$@"
