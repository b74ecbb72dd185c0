package autotune_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	. "critter/internal/autotune"
	"critter/internal/workload"
)

// exportedProfileSHA pins, per strategy and study, the sha256 over every
// sweep's Profile.Encode() of the quick grids (seed 42, the golden machine,
// each study's own policy list, eps 0.5 and 0.125), in sweep order. The
// literals were recorded before the profiler's archive went from Key-keyed
// maps to id-dense segments and the rank fold moved into one round's finish;
// the golden envelopes cannot see that change (SweepResult.Profile is not
// serialized into them), while warm starts and the surrogate consume exactly
// these moments as priors.
var exportedProfileSHA = map[string]map[string]string{
	"exhaustive": {
		"capital":    "792bdcd6714a61a8df6943ad889cc72dbba9d60fb27f18e54e6fe9323e4490a7",
		"slate-chol": "3c1edaab4fbeeeed3c2b0788d3172388805a98dda676dccfe15cc4ee1b961cb4",
		"candmc":     "00fa337d43b81df94bba52dd882db90da7ebb60e9238979abab4b44a5c80aead",
		"slate-qr":   "97d0b8a6d00c4647335a251c69c0ac6db8c29dbb1a0d80b1ce58273e54a39843",
	},
	"halving+extrapolate": {
		"capital":    "f6f1f3fea3fa761c6db284b1c6fb0c26580336ef76070d4613a1d985de3dba10",
		"slate-chol": "4b823c6d9828ddb3c206b59e7e1be8e6fcb7eb33c3ff378e68fe57299bca38b9",
		"candmc":     "3829e02c9e43c32464a187106ab56fdbf01472aaa2402355df77ec8d72306899",
		"slate-qr":   "d6fd7a48e8ab5f3acae0b420f3175472517f069bd160afac0313aa02ac5ebdaf",
	},
	"surrogate:8": {
		"capital":    "5063bf7739bee4475c1e483fdc6d97b7b964a38d00d6ca1d72928a25c36cd8ba",
		"slate-chol": "f5081e66cc779544e29c3bfb608e099d75f99fae814c29670f577f293659f604",
		"candmc":     "2fa7580a70b0b1e29601bd27e29ae038b2c3704cc1cfcdf2f048d799fc534caf",
		"slate-qr":   "4309103d3e63630ce01468d5bf263325269235acee1a527cb696be2a07a452a2",
	},
	"random:6": {
		"capital":    "4a45b718acb4eb7fe56cf22f8f9e072a5bd09343a61f7480d5622ee10206e8d6",
		"slate-chol": "99addb5e18ca89077e80d4b49652c0802fe5ff4385338a606e02d5b6f918422c",
		"candmc":     "13407e7550b879a0e01269bfa756249c382e952be2ce8c20c76cab42171e6b7b",
		"slate-qr":   "e1f4e3a634440eb5aac07468d0d260b45046af1e3daf269d83cc62b32cef12b5",
	},
}

// TestExportedProfilesUnchanged runs the four quick studies under
// exhaustive, halving with Extrapolate (rungs re-evaluate configurations, so
// one kernel table is archived twice in a row, and family models are
// archived), surrogate:8 (a mid-sweep GlobalProfile per round) and random:6,
// and compares every exported profile against the recorded bytes.
func TestExportedProfilesUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full quick sweeps")
	}
	for _, tc := range []struct {
		name, spec  string
		extrapolate bool
	}{
		{"exhaustive", "exhaustive", false},
		{"halving+extrapolate", "halving", true},
		{"surrogate:8", "surrogate:8", false},
		{"random:6", "random:6", false},
	} {
		strat, err := ParseStrategy(tc.spec, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"capital", "slate-chol", "candmc", "slate-qr"} {
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
				got := hex.EncodeToString(h.Sum(nil))
				if want := exportedProfileSHA[tc.name][name]; got != want {
					t.Errorf("exported profiles hash to %s, recorded %s", got, want)
				}
			})
		}
	}
}
