package autotune_test

// Golden-envelope equality tests: the full result grids of all four case
// studies — eager propagation (CAPITAL) and the successive-halving strategy
// included — are pinned byte-for-byte against committed golden JSON. The
// simulation substrate underneath (mpi fabric, pathset propagation, sweep
// executor) may be rebuilt freely, but these tests prove the sweep results
// stay bit-identical: any refactor that perturbs virtual-time determinism,
// pathset merging, or estimator feeding order fails here.
//
// Studies are resolved by name through the workload registry (ResolveStudy),
// the same path the CLIs and the service layer take, so the tests also pin
// that registry resolution changes nothing about the results.
//
// Regenerate with `bash scripts/restat.sh`.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	. "critter/internal/autotune"
	"critter/internal/golden"
	"critter/internal/sim"
	"critter/internal/workload"
)

// goldenMachine is the fixed machine model behind the golden grids.
func goldenMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.05
	return m
}

// goldenCases enumerates the pinned (study, strategy) grid. Exhaustive runs
// every study under its full policy list (eager included for CAPITAL);
// halving exercises the rung-pruning path on every study.
func goldenCases(t *testing.T) []struct {
	name  string
	study Study
	strat Strategy
	eps   []float64
} {
	t.Helper()
	halving := func() Strategy {
		s, err := ParseStrategy("halving", 42)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	study := func(name string) Study {
		st, err := workload.ResolveStudy(nil, name, "quick")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return []struct {
		name  string
		study Study
		strat Strategy
		eps   []float64
	}{
		{"capital_exhaustive", study("capital"), Exhaustive{}, []float64{0.5, 0.125}},
		{"slate-chol_exhaustive", study("slate-chol"), Exhaustive{}, []float64{0.5, 0.125}},
		{"candmc_exhaustive", study("candmc"), Exhaustive{}, []float64{0.5, 0.125}},
		{"slate-qr_exhaustive", study("slate-qr"), Exhaustive{}, []float64{0.125}},
		{"capital_halving", study("capital"), halving(), []float64{0.125}},
		{"slate-chol_halving", study("slate-chol"), halving(), []float64{0.125}},
		{"candmc_halving", study("candmc"), halving(), []float64{0.125}},
		{"slate-qr_halving", study("slate-qr"), halving(), []float64{0.125}},
	}
}

// TestGoldenEnvelope runs each pinned case and compares the serialized
// result grid byte-for-byte against its golden file.
func TestGoldenEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grids run full sweeps")
	}
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Tuner{
				Study:    tc.study,
				EpsList:  tc.eps,
				Machine:  goldenMachine(),
				Seed:     42,
				Strategy: tc.strat,
			}.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden.Check(t, filepath.Join("testdata", "envelope_"+tc.name+".golden.json"), got)
		})
	}
}
