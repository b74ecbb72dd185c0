package autotune

import (
	"context"
	"math"
	"testing"

	"critter/internal/critter"
	"critter/internal/sim"
)

func quickMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.05
	return m
}

func TestDefaultEpsList(t *testing.T) {
	eps := DefaultEpsList()
	if len(eps) != 11 || eps[0] != 1 || eps[10] != math.Pow(2, -10) {
		t.Fatalf("eps list = %v", eps)
	}
}

func TestScalesValidate(t *testing.T) {
	// Every configuration of every study must pass its library Validate
	// (the Run closures panic otherwise; here we only exercise the
	// constructors and labels).
	for _, s := range []Scale{DefaultScale(), QuickScale()} {
		for _, st := range []Study{CapitalCholesky(s), SlateCholesky(s), CandmcQR(s), SlateQR(s)} {
			if st.Size() <= 0 || st.WorldSize <= 0 {
				t.Errorf("%s: bad dims", st.Name)
			}
			for v := 0; v < st.Size(); v++ {
				if st.Label(v) == "" {
					t.Errorf("%s config %d has no description", st.Name, v)
				}
			}
		}
	}
}

func TestConfigSpaceSizesMatchPaper(t *testing.T) {
	s := DefaultScale()
	if got := CapitalCholesky(s).Size(); got != 15 {
		t.Errorf("capital configs = %d, want 15", got)
	}
	if got := SlateCholesky(s).Size(); got != 20 {
		t.Errorf("slate cholesky configs = %d, want 20", got)
	}
	if got := CandmcQR(s).Size(); got != 15 {
		t.Errorf("candmc configs = %d, want 15", got)
	}
	if got := SlateQR(s).Size(); got != 63 {
		t.Errorf("slate qr configs = %d, want 63", got)
	}
}

func TestFullOnlyCapitalQuick(t *testing.T) {
	st := CapitalCholesky(QuickScale())
	reports, err := FullOnlyCtx(context.Background(), st, quickMachine(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != st.Size() {
		t.Fatalf("got %d reports", len(reports))
	}
	for v, r := range reports {
		if r.Wall <= 0 || r.BSPCompCrit <= 0 || r.BSPCommCrit <= 0 {
			t.Errorf("config %d: degenerate report %+v", v, r)
		}
		if r.Skipped != 0 {
			t.Errorf("config %d: full-only run skipped %d kernels", v, r.Skipped)
		}
	}
	// BSP synchronization cost must decrease with larger base-case block
	// (fewer recursion levels): config 4 (largest b) vs config 0.
	if reports[4].BSPSyncCrit >= reports[0].BSPSyncCrit {
		t.Errorf("sync cost should fall with block size: b-small %g, b-large %g",
			reports[0].BSPSyncCrit, reports[4].BSPSyncCrit)
	}
}

func TestSweepCapitalQuick(t *testing.T) {
	st := CapitalCholesky(QuickScale())
	tn := Tuner{
		Study:    st,
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     5,
		Policies: []critter.Policy{critter.Conditional, critter.Eager},
	}
	res, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cond := res.Sweeps[0][0]
	eager := res.Sweeps[1][0]
	if len(cond.Configs) != st.Size() {
		t.Fatalf("conditional covered %d configs", len(cond.Configs))
	}
	if cond.TuneWall <= 0 || cond.FullWall <= 0 {
		t.Fatal("degenerate sweep timings")
	}
	// Selective execution must be no slower than full execution.
	if cond.TuneWall > cond.FullWall*1.05 {
		t.Errorf("conditional tuning (%g) slower than full (%g)", cond.TuneWall, cond.FullWall)
	}
	// Eager reuses models across configs: it must skip more than
	// conditional does.
	if eager.Skipped <= cond.Skipped {
		t.Errorf("eager skipped %d, conditional %d; eager should skip more",
			eager.Skipped, cond.Skipped)
	}
	// Prediction error should be bounded at this tolerance.
	for _, cr := range cond.Configs {
		if math.IsInf(cr.ExecErr, 0) || math.IsNaN(cr.ExecErr) {
			t.Errorf("config %d: bad error %v", cr.Config, cr.ExecErr)
		}
	}
}

func TestSweepSlateCholQuickErrorShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	// The per-sweep noise streams make single-seed error comparisons
	// flaky, so assert the systematic properties across several seeds:
	// tighter tolerance always executes more kernels, and the comp-time
	// prediction error does not grow on average (Fig. 4d).
	st := SlateCholesky(QuickScale())
	var errDiffSum float64
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		res, err := Tuner{
			Study:    st,
			EpsList:  []float64{0.5, 0.03125},
			Machine:  quickMachine(),
			Seed:     seed,
			Policies: []critter.Policy{critter.Online},
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		loose, tight := res.Sweeps[0][0], res.Sweeps[0][1]
		// Tighter tolerance => more executions, at every seed.
		if tight.Executed <= loose.Executed {
			t.Errorf("seed %d: tight eps executed %d <= loose %d", seed, tight.Executed, loose.Executed)
		}
		errDiffSum += tight.MeanLogCompErr - loose.MeanLogCompErr
	}
	if mean := errDiffSum / float64(len(seeds)); mean >= 0.5 {
		t.Errorf("comp error grew with tighter tolerance: mean log2 diff %.2f over %d seeds", mean, len(seeds))
	}
}

// TestCandmcOnlineNoDeadlock is a regression test: the Online policy over
// CANDMC's symmetric TSQR Sendrecv exchanges once deadlocked because the
// internal piggyback messages cross-paired (send-with-send instead of
// send-with-recv), letting the two sides reach different skip decisions.
func TestCandmcOnlineNoDeadlock(t *testing.T) {
	st := CandmcQR(QuickScale())
	tn := Tuner{
		Study:    st,
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     4,
		Policies: []critter.Policy{critter.Online},
	}
	if _, err := tn.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestAprioriIncludesOfflinePass(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	st := CandmcQR(QuickScale())
	tn := Tuner{
		Study:    st,
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     4,
		Policies: []critter.Policy{critter.Conditional, critter.APriori},
	}
	res, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cond, apriori := res.Sweeps[0][0], res.Sweeps[1][0]
	// The extra full execution prevents any speedup relative to
	// conditional execution (Section VI-B).
	if apriori.TuneWall <= cond.TuneWall {
		t.Errorf("apriori tuning %g should exceed conditional %g (extra offline pass)",
			apriori.TuneWall, cond.TuneWall)
	}
}

func TestOptimalConfigSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	// Section VI-C: Critter's selected configuration achieves performance
	// close to the optimum. With simulated noise the argmin may differ;
	// check the selected config's full time is within 10% of optimal.
	st := CapitalCholesky(QuickScale())
	tn := Tuner{
		Study:    st,
		EpsList:  []float64{0.125},
		Machine:  quickMachine(),
		Seed:     8,
		Policies: []critter.Policy{critter.Online},
	}
	res, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Sweeps[0][0]
	fullOf := func(v int) float64 {
		for _, cr := range sw.Configs {
			if cr.Config == v {
				return cr.Full.Wall
			}
		}
		return math.NaN()
	}
	sel, opt := fullOf(sw.Selected), fullOf(sw.Optimal)
	if sel > opt*1.10 {
		t.Errorf("selected config %d (%.4gs) more than 10%% off optimal %d (%.4gs)",
			sw.Selected, sel, sw.Optimal, opt)
	}
}
