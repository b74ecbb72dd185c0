#!/usr/bin/env bash
# Re-record every pinned statistic and format, then check everything:
#
#   1. rewrite each package's golden files under testdata/ from its pin
#      tests (go test -update-golden), in dependency order:
#        internal/critter   online_path_{freqs,times,rounds}.golden,
#                           profile.golden.json
#        internal/autotune  the 8 envelopes, profile_sha.golden,
#                           noise_free_bias.golden
#        the root           facade.golden
#   2. regenerate the figure board, BENCH_figures.md, whose exhaustive
#      cells are checked against the envelopes step 1 wrote,
#   3. run go test ./...,
#   4. print git status --short: what moved, for review.
#
# It never commits. A change that does not mean to move a statistic must
# leave git status empty; one that does is reviewed by reading the diff of
# testdata/ and BENCH_figures.md.
#
# Usage: bash scripts/restat.sh  (from anywhere in the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

update() {
	local pkg=$1 tests=$2
	echo "restat: re-recording $pkg ($tests)"
	# The package comes before -update-golden: go test hands everything
	# after the first flag it does not know to the test binary.
	go test -count=1 -run "^($tests)\$" "$pkg" -update-golden
}
update ./internal/critter 'TestOnlinePathFreqsPinned|TestProfileGoldenFile'
update ./internal/autotune 'TestGoldenEnvelope|TestExportedProfilesUnchanged|TestNoiseFreeAccountingBias'
update . 'TestFacadeSurface'

echo "restat: regenerating BENCH_figures.md"
board=$(mktemp BENCH_figures.md.XXXXXX)
trap 'rm -f "$board"' EXIT
go run ./cmd/figures > "$board"
mv "$board" BENCH_figures.md

echo "restat: go test ./..."
status=0
go test ./... || status=$?

echo "restat: git status --short"
git status --short
exit "$status"
