package autotune_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	. "critter/internal/autotune"
	"critter/internal/golden"
	"critter/internal/workload"
)

// TestExportedProfilesUnchanged runs the four quick studies (seed 42, the
// golden machine, each study's own policy list, eps 0.5 and 0.125) under
// exhaustive, halving with Extrapolate (rungs re-evaluate configurations, so
// one kernel table is archived twice in a row, and family models are
// archived), surrogate:8 (rounds planned from the results so far) and
// random:6, and pins in testdata/profile_sha.golden, one "strategy/study
// sha" line each, the sha256 over every sweep's Profile.Encode() in sweep
// order. The golden envelopes cannot see a change to an exported profile
// (SweepResult.Profile is not serialized into them), while warm starts
// consume exactly these moments as priors. The hashes move only with the
// noise the runs draw, the statistics they keep or the configurations a
// strategy picks; regenerate with `bash scripts/restat.sh`.
func TestExportedProfilesUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick sweeps")
	}
	strategies := []struct {
		name, spec  string
		extrapolate bool
	}{
		{"exhaustive", "exhaustive", false},
		{"halving+extrapolate", "halving", true},
		{"surrogate:8", "surrogate:8", false},
		{"random:6", "random:6", false},
	}
	studies := []string{"capital", "slate-chol", "candmc", "slate-qr"}
	// lines[i] is written by subtest i alone; cleanups run once every
	// parallel subtest has finished.
	lines := make([]string, len(strategies)*len(studies))
	t.Cleanup(func() {
		golden.Check(t, filepath.Join("testdata", "profile_sha.golden"), []byte(strings.Join(lines, "")))
	})
	for si, tc := range strategies {
		strat, err := ParseStrategy(tc.spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		for wi, name := range studies {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				study, err := workload.ResolveStudy(nil, name, "quick")
				if err != nil {
					t.Fatal(err)
				}
				res, err := Tuner{
					Study:       study,
					EpsList:     []float64{0.5, 0.125},
					Machine:     goldenMachine(),
					Seed:        42,
					Strategy:    strat,
					Extrapolate: tc.extrapolate,
				}.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, row := range res.Sweeps {
					for _, sw := range row {
						enc, err := sw.Profile.Encode()
						if err != nil {
							t.Fatal(err)
						}
						h.Write(enc)
					}
				}
				lines[si*len(studies)+wi] = fmt.Sprintf("%s/%s %s\n", tc.name, name, hex.EncodeToString(h.Sum(nil)))
			})
		}
	}
}
