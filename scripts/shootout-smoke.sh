#!/usr/bin/env bash
# Strategy-shootout smoke, run by CI:
#
#   1. run cmd/critter-shootout over the four golden-backed workloads at
#      quick scale (seed 42, noise 0.05, online policy, eps 0.125 — the
#      golden-grid configuration),
#   2. cross-check the exhaustive reference sweeps byte-for-byte against
#      the committed golden envelopes (-golden-dir), tying the scoreboard's
#      ground truth to the repo's determinism anchor,
#   3. require the surrogate strategy to land within epsilon (5%) of the
#      true optimum on at least 2 workloads while executing at most half of
#      the exhaustive sweep's kernels (-require 2),
#   4. byte-compare the regenerated scoreboard with the committed
#      BENCH_shootout.md — the shootout is fully deterministic, so any
#      drift is a real behavior change and must ship with a regenerated
#      scoreboard.
#
# Usage: scripts/shootout-smoke.sh  (from the repository root)
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "=== build"
go build -o "$workdir/critter-shootout" ./cmd/critter-shootout

echo "=== shootout (quick scale, golden cross-check, surrogate acceptance)"
"$workdir/critter-shootout" -scale quick \
  -golden-dir internal/autotune/testdata \
  -require 2 -require-frac 0.5 \
  -markdown "$workdir/board.md"

echo "=== compare with BENCH_shootout.md"
if ! cmp "$workdir/board.md" BENCH_shootout.md; then
  diff "$workdir/board.md" BENCH_shootout.md || true
  echo "the scoreboard moved; if that is intended, regenerate it with:"
  echo "  go run ./cmd/critter-shootout -scale quick -markdown BENCH_shootout.md"
  exit 1
fi

echo "shootout smoke passed"
