#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it with the arguments given. Everything the go tool writes (build
# cache included) stays inside the checkout. With no parent module beside
# bench/ the build fails and this script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
exec "$build/bench" -out "$here/out" "$@"
