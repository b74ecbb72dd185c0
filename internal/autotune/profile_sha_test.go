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
// golden envelopes cannot see a change to an exported profile
// (SweepResult.Profile is not serialized into them), while warm starts and
// the surrogate consume exactly these moments as priors. The literals move
// only with the noise the runs draw: they were last recorded when a run's
// streams became keyed by (configuration, run kind, round), in the same
// change that regenerated the envelopes. To regenerate, run the test and
// replace each recorded literal with the hash it reports.
var exportedProfileSHA = map[string]map[string]string{
	"exhaustive": {
		"capital":    "142b68952ebe88de62dcc6aa823c7c0b1c48aff14db6e06bc5e8a37e7b7bd241",
		"slate-chol": "ffdb66b0fe483f85b2d235d65ca3a5bbb469ca7cad5038a9f654d1b5a9be8394",
		"candmc":     "d951c3faea33cfb2adc743cc210b9b420b1e15795863e146415201014fd0b811",
		"slate-qr":   "2450bf30efbb66178bc9252822eb0c7a69b6ce8218abe2c58e464c9ab4e7d52e",
	},
	"halving+extrapolate": {
		"capital":    "e6549679c673cdeebdc36018b36b938ec09fe47e82ae2a401762e02e8b82441c",
		"slate-chol": "3c2d56e3b92337e99048937067ff92582e9fbb42637aac7e491dd03e9cdcb699",
		"candmc":     "2a88f88acafd2c4c257c1ed8eb60966c057414df3a6621aa0b91eaa8feed3ec2",
		"slate-qr":   "5971ec34419a2a2d837d9a58dff845285528da3437b2f39c20a104eb8f619996",
	},
	"surrogate:8": {
		"capital":    "835c5f684611f324b3f0fc6afdbb6a66cd14522581474d536141f6f47b60e5d6",
		"slate-chol": "8a6cee29c805e6eb961d14508d115be2fc3d78a2cf12f037eb7a76ddd91be4e8",
		"candmc":     "487326bb7ee0fbe2c52c2ac3fdf22cf823443bf424c7042961269c9aeab19a19",
		"slate-qr":   "4b40b8339022e68c1a617f87e8dfa59a3ac029b248f4ac1af420d9c96170cd83",
	},
	"random:6": {
		"capital":    "e9bdcab0a37e30ff972fa0a30c29ee642a4337b9fd7a439b2e4de02a14991894",
		"slate-chol": "fa2cd864e703bffae2a0190c4cf5f82ac1eda4c6a7b53785201df74e9b09aa5f",
		"candmc":     "9ec32459ba36a1707b96d9ecdc88bb167c2655d611df40fcfba1d2808580d1d6",
		"slate-qr":   "f0168f9ee60e4a740aca8b4943ee81f164066407e28bdd92d7d3ce060ca259b2",
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
