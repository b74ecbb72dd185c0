package critter

import (
	"math"
	"sort"
)

// Kernel-model extrapolation, the extension Section VIII of the paper
// proposes as future work: "Extrapolation of individual kernel performance
// models to characterize kernel performance across varying input sizes can
// benefit a wide class of algorithms, including CANDMC's pipelined QR
// factorization algorithm. Such line-fitting approaches can permit kernel
// execution to be more selective."
//
// Each computation-kernel *family* (same routine name, varying input sizes)
// accumulates (flops, mean-duration) points from signatures whose own
// models are already predictable. Once at least three distinct points fit a
// line t = a + b*flops with relative residuals within the confidence
// tolerance, an unseen or under-sampled signature of the family may be
// skipped immediately, its duration estimated from the fit — bypassing the
// execute-at-least-once rule that otherwise forces a sample of every
// distinct signature per configuration. The family models are owned by the
// CI-mean prediction model (estimator.go) and serialize into Profiles
// (profile.go), which is how warm-started runs transfer across scales: a
// fitted family predicts any flops count within its extrapolation range,
// even for signatures the prior run never saw.

// familyModel is the per-routine-name regression state. The fit is a
// log-log line, ln t = a + b*ln flops, which captures both the linear
// regime of large kernels and the efficiency roll-off of small ones.
type familyModel struct {
	// points is keyed by the exact bit pattern of the point's flops value:
	// distinct flops must stay distinct points (int truncation collided
	// sub-integer-distinct values and overflowed beyond 2^63).
	points map[uint64]familyPoint
	dirty  bool
	a, b   float64 // fitted ln t = a + b*ln flops
	relErr float64 // max relative residual of the fit
	minF   float64
	maxF   float64
	ok     bool
}

type familyPoint struct {
	flops float64
	mean  float64
}

func newFamilyModel() *familyModel {
	return &familyModel{points: make(map[uint64]familyPoint)}
}

// add records one (flops, mean) point, replacing any previous point at the
// same flops value. An unchanged point leaves the fit alone.
func (fm *familyModel) add(flops, mean float64) {
	key := math.Float64bits(flops)
	if prev, exists := fm.points[key]; exists && prev.mean == mean {
		return
	}
	fm.points[key] = familyPoint{flops: flops, mean: mean}
	fm.dirty = true
}

// sortedPoints returns the points in ascending flops order, making every
// floating-point accumulation over them deterministic regardless of map
// iteration order (profiles and bit-identical reruns depend on it).
func (fm *familyModel) sortedPoints() []familyPoint {
	pts := make([]familyPoint, 0, len(fm.points))
	for _, pt := range fm.points {
		pts = append(pts, pt)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].flops < pts[j].flops })
	return pts
}

// refit recomputes the least-squares log-log line and its quality.
func (fm *familyModel) refit() {
	fm.dirty = false
	fm.ok = false
	if len(fm.points) < 3 {
		return
	}
	pts := fm.sortedPoints()
	var n, sx, sy, sxx, sxy float64
	fm.minF, fm.maxF = math.Inf(1), math.Inf(-1)
	for _, pt := range pts {
		if pt.mean <= 0 || pt.flops <= 0 {
			return
		}
		x, y := math.Log(pt.flops), math.Log(pt.mean)
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		fm.minF = min(fm.minF, pt.flops)
		fm.maxF = max(fm.maxF, pt.flops)
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return
	}
	fm.b = (n*sxy - sx*sy) / det
	fm.a = (sy - fm.b*sx) / n
	fm.relErr = 0
	for _, pt := range pts {
		pred := math.Exp(fm.a + fm.b*math.Log(pt.flops))
		rel := math.Abs(pred-pt.mean) / pt.mean
		fm.relErr = max(fm.relErr, rel)
	}
	fm.ok = fm.b >= 0
}

// predict returns the fitted duration for the given flops when the fit is
// trustworthy at tolerance eps: enough points, residuals within eps, and
// the target within a bounded extrapolation range (up to 4x beyond the
// largest observed kernel and down to a quarter of the smallest).
func (fm *familyModel) predict(flops, eps float64) (float64, bool) {
	if fm.dirty {
		fm.refit()
	}
	if !fm.ok || fm.relErr > eps {
		return 0, false
	}
	if flops > 4*fm.maxF || flops < fm.minF/4 {
		return 0, false
	}
	t := math.Exp(fm.a + fm.b*math.Log(flops))
	if t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return 0, false
	}
	return t, true
}

// FamilyPoints returns how many (flops, mean) points the named kernel
// family has accumulated (for tests and diagnostics).
func (p *Profiler) FamilyPoints(name string) int {
	if fm, ok := p.est.families[name]; ok {
		return len(fm.points)
	}
	return 0
}
