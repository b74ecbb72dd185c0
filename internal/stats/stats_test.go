package stats

import (
	"math"
	"testing"
	"testing/quick"

	"critter/internal/sim"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestWelfordAgainstTwoPass(t *testing.T) {
	xs := []float64{3.1, 2.7, 9.4, -1.2, 0.0, 5.5, 5.5, 8.8}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	// Two-pass reference.
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varr := 0.0
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(xs) - 1)
	if !almostEq(w.Mean(), mean, 1e-12) {
		t.Errorf("mean = %g, want %g", w.Mean(), mean)
	}
	if !almostEq(w.Variance(), varr, 1e-12) {
		t.Errorf("variance = %g, want %g", w.Variance(), varr)
	}
	if w.Count() != int64(len(xs)) {
		t.Errorf("count = %d, want %d", w.Count(), len(xs))
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Count() != 0 {
		t.Error("empty accumulator should be all zero")
	}
	if !math.IsInf(w.CI(), 1) {
		t.Error("empty accumulator CI should be +Inf")
	}
	w.Add(4.2)
	if w.Mean() != 4.2 || w.Variance() != 0 {
		t.Error("single-sample mean/variance wrong")
	}
	if !math.IsInf(w.CI(), 1) {
		t.Error("single-sample CI should be +Inf (never predictable off one sample)")
	}
}

// clampSamples maps arbitrary generated floats into the physical range of
// kernel timings (finite, bounded magnitude) so squared deviations cannot
// overflow; Welford is only ever fed durations in seconds.
func clampSamples(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e9))
	}
	return out
}

func TestWelfordMergeEquivalentToSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		a, b = clampSamples(a), clampSamples(b)
		var wa, wb, wall Welford
		for _, x := range a {
			wa.Add(x)
			wall.Add(x)
		}
		for _, x := range b {
			wb.Add(x)
			wall.Add(x)
		}
		wa.Merge(wb)
		return wa.Count() == wall.Count() &&
			almostEq(wa.Mean(), wall.Mean(), 1e-9) &&
			almostEq(wa.Variance(), wall.Variance(), 1e-9)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(2)
	before := a
	a.Merge(b) // merging empty is a no-op
	if a != before {
		t.Error("merging empty accumulator changed state")
	}
	b.Merge(a) // merging into empty copies
	if b.Mean() != a.Mean() || b.Count() != a.Count() {
		t.Error("merging into empty did not copy")
	}
}

func TestCIShrinksWithSamples(t *testing.T) {
	var w Welford
	// Alternating samples keep variance fixed while n grows.
	prev := math.Inf(1)
	for i := 0; i < 100; i++ {
		w.Add(10 + float64(i%2))
		if i >= 3 && i%2 == 1 {
			ci := w.CI()
			if ci >= prev {
				t.Fatalf("CI did not shrink at n=%d: %g >= %g", i+1, ci, prev)
			}
			prev = ci
		}
	}
}

func TestScaledCI(t *testing.T) {
	var w Welford
	for _, x := range []float64{9, 10, 11, 10, 9, 11} {
		w.Add(x)
	}
	base := w.CI()
	if got := w.ScaledCI(1); got != base {
		t.Errorf("freq=1 should not scale: %g != %g", got, base)
	}
	if got := w.ScaledCI(4); !almostEq(got, base/2, 1e-12) {
		t.Errorf("freq=4 should halve the CI: %g, want %g", got, base/2)
	}
	if got := w.ScaledCI(0); got != base {
		t.Errorf("freq=0 treated as 1: got %g want %g", got, base)
	}
}

func TestPredictable(t *testing.T) {
	var w Welford
	if w.Predictable(0.5, 1) {
		t.Error("empty kernel must never be predictable")
	}
	for i := 0; i < 50; i++ {
		w.Add(100 + 0.1*float64(i%3))
	}
	if !w.Predictable(0.01, 1) {
		t.Errorf("tight kernel should be predictable: relCI=%g", w.RelCI(1))
	}
	if w.Predictable(1e-9, 1) {
		t.Error("kernel should not be predictable at absurd tolerance")
	}
	// Frequency credit makes a borderline kernel predictable.
	var v Welford
	for i := 0; i < 4; i++ {
		v.Add(10 + float64(i%2)) // high relative spread
	}
	eps := v.RelCI(1) * 0.6 // between scaled (freq 4 -> /2) and unscaled
	if v.Predictable(eps, 1) {
		t.Fatal("test setup: should not be predictable unscaled")
	}
	if !v.Predictable(eps, 4) {
		t.Error("frequency credit sqrt(4)=2 should make kernel predictable")
	}
}

func TestRelCIDegenerateMean(t *testing.T) {
	var w Welford
	w.Add(0)
	w.Add(0)
	if !math.IsInf(w.RelCI(1), 1) {
		t.Error("zero-mean kernel must have infinite relative CI")
	}
	var n Welford
	n.Add(-1)
	n.Add(-2)
	if !math.IsInf(n.RelCI(1), 1) {
		t.Error("negative-mean kernel must have infinite relative CI")
	}
}

func TestRelErr(t *testing.T) {
	if e := RelErr(110, 100); !almostEq(e, 0.1, 1e-12) {
		t.Errorf("RelErr(110,100) = %g, want 0.1", e)
	}
	if e := RelErr(90, 100); !almostEq(e, 0.1, 1e-12) {
		t.Errorf("RelErr(90,100) = %g, want 0.1", e)
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) should be 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
}

func TestMeanLogErr(t *testing.T) {
	// Geometric mean of {2^-2, 2^-4} is 2^-3.
	got := MeanLogErr([]float64{0.25, 0.0625})
	if !almostEq(got, -3, 1e-12) {
		t.Errorf("MeanLogErr = %g, want -3", got)
	}
	if !math.IsInf(MeanLogErr(nil), -1) {
		t.Error("empty errors should be -Inf")
	}
	// Zero errors are floored, not -Inf.
	if math.IsInf(MeanLogErr([]float64{0}), -1) {
		t.Error("zero error should be floored")
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Max(xs) != 5 || Min(xs) != 1 {
		t.Errorf("Max/Min = %g/%g", Max(xs), Min(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("Max/Min of empty should be -Inf/+Inf")
	}
}

func TestWelfordVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		for _, x := range clampSamples(xs) {
			w.Add(x)
		}
		return w.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(2)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Error("Reset did not clear the accumulator")
	}
}

// TestCICoverage measures how often Welford.CI — the normal quantile Z95 times
// the standard error, from two samples up — actually contains the true mean
// under the simulator's own noise (sim.Machine.Noise: lognormal, unit median,
// sigma 0.05), per sample count. The interval is nominally 95%; a z quantile
// where Student's t belongs covers far less at small n (t at one degree of
// freedom is 12.7, not 1.96), and this pins how much less, so that a change to
// the quantile or to the minimum sample count is made against a number. It
// changes no interval.
func TestCICoverage(t *testing.T) {
	const sigma, trials = 0.05, 20000
	trueMean := math.Exp(sigma * sigma / 2)
	coverage := map[int]float64{}
	for _, n := range []int{2, 3, 4, 8, 16, 32} {
		rng := sim.NewRNG(sim.Mix(0xc1, uint64(n)))
		covered := 0
		for trial := 0; trial < trials; trial++ {
			var w Welford
			for i := 0; i < n; i++ {
				w.Add(rng.LogNormal(sigma))
			}
			if math.Abs(w.Mean()-trueMean) <= w.CI() {
				covered++
			}
		}
		coverage[n] = float64(covered) / trials
		t.Logf("n = %2d: the nominal 95%% interval covers the true mean in %.3f of %d trials", n, coverage[n], trials)
	}
	if c := coverage[2]; c < 0.65 || c > 0.75 {
		t.Errorf("coverage at n = 2 is %.3f, want 0.65-0.75 (a z interval on one degree of freedom)", c)
	}
	if c := coverage[32]; c < 0.93 {
		t.Errorf("coverage at n = 32 is %.3f, want at least 0.93", c)
	}
}
