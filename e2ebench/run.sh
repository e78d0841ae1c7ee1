#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Every argument
# is passed through, e.g.:
#
#   bash e2ebench/run.sh --workload city_updates --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live in .bench_build/ at the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
