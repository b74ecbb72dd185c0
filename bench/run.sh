#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from the checkout root:  bash bench/run.sh [flags]   (see README.md)
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ so nothing is read or written outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/critter-bench" .)
cd "$root"
exec "$build/critter-bench" "$@"
