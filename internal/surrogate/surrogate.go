// Package surrogate implements the deterministic regression model behind
// the model-guided search strategy (autotune.Surrogate): a ridge-regression
// fit of a low-order polynomial over a configuration space's normalized
// dimension coordinates, with an expected-improvement acquisition function
// over its predictive distribution.
//
// The model is the repo-native cousin of the Bayesian autotuners in the
// related literature (Wu et al.'s BO over PolyBench spaces, the Triton
// autotuner's train_model): observations are the profiler's cheap
// predicted times — low-fidelity by construction — so a strategy can learn
// the response surface mid-sweep without paying for executed kernels.
//
// Everything here is deterministic and stdlib-only: no wall clock, no
// process-global randomness, float arithmetic in fixed order (the package
// lives in the critterlint-deterministic layer, and every rank of a sweep
// fits an identical copy of the model on identical observations, so the
// fits must agree bit-for-bit across ranks).
package surrogate

import (
	"fmt"
	"math"
)

// Obs is one observation: a configuration's per-dimension coordinates (as
// produced by Space.Decode) and its observed response y. The strategy layer
// feeds log predicted times, which linearizes the multiplicative structure
// of execution-time surfaces.
type Obs struct {
	Coords []int
	Y      float64
}

// Model is a ridge-regression surrogate over a fixed-dimension space. The
// feature map is a full quadratic polynomial of the normalized coordinates
// (intercept, linear, square, and pairwise-interaction terms), so the model
// can represent the single-trough response surfaces block/tile-size spaces
// typically exhibit while staying a few dozen parameters at most.
//
// The zero value is unusable; construct with New. Fit may be called any
// number of times; each call refits from scratch on the observations given.
type Model struct {
	sizes  []int
	lambda float64
	nf     int

	fitted bool
	n      int
	theta  []float64   // fitted coefficients, len nf
	ainv   [][]float64 // (X'X + lambda I)^-1, nf x nf
	s2     float64     // residual variance of the fit
}

// DefaultLambda is the ridge penalty used when New is given lambda <= 0.
// Features are normalized to [0,1] and responses are log-times of order
// one, so a mild penalty stabilizes early fits (fewer observations than
// features) without flattening converged ones.
const DefaultLambda = 1e-2

// New builds a surrogate over a space whose i-th dimension has sizes[i]
// points. lambda <= 0 selects DefaultLambda.
func New(sizes []int, lambda float64) *Model {
	if lambda <= 0 {
		lambda = DefaultLambda
	}
	d := len(sizes)
	return &Model{
		sizes:  append([]int(nil), sizes...),
		lambda: lambda,
		nf:     1 + 2*d + d*(d-1)/2,
	}
}

// Fitted reports whether the model has been fit on at least one
// observation.
func (m *Model) Fitted() bool { return m.fitted }

// features maps per-dimension coordinates to the quadratic feature vector,
// normalizing each coordinate to [0,1] along its axis (a single-point axis
// contributes the constant 0.5, which the intercept absorbs).
func (m *Model) features(coords []int) []float64 {
	d := len(m.sizes)
	x := make([]float64, d)
	for i, sz := range m.sizes {
		if sz > 1 {
			x[i] = float64(coords[i]) / float64(sz-1)
		} else {
			x[i] = 0.5
		}
	}
	f := make([]float64, 0, m.nf)
	f = append(f, 1)
	f = append(f, x...)
	for i := 0; i < d; i++ {
		f = append(f, x[i]*x[i])
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			f = append(f, x[i]*x[j])
		}
	}
	return f
}

// Fit refits the model on the given observations via the ridge normal
// equations, in the order given (the fold order is part of the determinism
// contract: callers present observations in evaluation order, identical on
// every rank). Observations with non-finite responses are ignored. An
// empty (or all-non-finite) set leaves the model unfitted.
func (m *Model) Fit(obs []Obs) error {
	nf := m.nf
	a := newMatrix(nf)
	b := make([]float64, nf)
	n := 0
	for _, o := range obs {
		if math.IsNaN(o.Y) || math.IsInf(o.Y, 0) {
			continue
		}
		if len(o.Coords) != len(m.sizes) {
			return fmt.Errorf("surrogate: observation has %d coordinates, space has %d dimensions",
				len(o.Coords), len(m.sizes))
		}
		f := m.features(o.Coords)
		for i := 0; i < nf; i++ {
			for j := 0; j < nf; j++ {
				a[i][j] += f[i] * f[j]
			}
			b[i] += f[i] * o.Y
		}
		n++
	}
	if n == 0 {
		m.fitted = false
		return nil
	}
	for i := 0; i < nf; i++ {
		a[i][i] += m.lambda
	}
	ainv, ok := invert(a)
	if !ok {
		// The ridge term makes the normal matrix positive definite, so a
		// singular system means pathological inputs; stay unfitted rather
		// than emit garbage.
		m.fitted = false
		return fmt.Errorf("surrogate: normal equations singular despite ridge term")
	}
	theta := make([]float64, nf)
	for i := 0; i < nf; i++ {
		for j := 0; j < nf; j++ {
			theta[i] += ainv[i][j] * b[j]
		}
	}
	// Residual variance over the fit set (biased estimator: with fewer
	// observations than features the unbiased denominator is meaningless,
	// and the acquisition only needs a consistent scale).
	var rss float64
	for _, o := range obs {
		if math.IsNaN(o.Y) || math.IsInf(o.Y, 0) {
			continue
		}
		f := m.features(o.Coords)
		r := o.Y - dot(f, theta)
		rss += r * r
	}
	m.n, m.theta, m.ainv, m.s2 = n, theta, ainv, rss/float64(n)
	m.fitted = true
	return nil
}

// N returns the number of observations of the last fit.
func (m *Model) N() int { return m.n }

// Predict returns the model's predictive mean and standard deviation at the
// given coordinates. The variance is the ridge-regression predictive
// variance s^2 (1 + f' (X'X + lambda I)^-1 f): residual noise plus
// parameter uncertainty, so points far from the evaluated region carry
// honestly wider bars. Calling Predict on an unfitted model returns (0, 0).
func (m *Model) Predict(coords []int) (mean, std float64) {
	if !m.fitted {
		return 0, 0
	}
	f := m.features(coords)
	mean = dot(f, m.theta)
	q := 0.0
	for i := range f {
		row := m.ainv[i]
		for j := range f {
			q += f[i] * row[j] * f[j]
		}
	}
	v := m.s2 * (1 + q)
	if v > 0 {
		std = math.Sqrt(v)
	}
	return mean, std
}

// ExpectedImprovement is the acquisition value of a candidate with
// predictive (mean, std) against the best (minimal) observed response,
// with exploration margin xi in response units: the expected amount by
// which the candidate beats best - xi under a normal predictive
// distribution. A zero std degenerates to the deterministic improvement
// max(best - xi - mean, 0).
func ExpectedImprovement(mean, std, best, xi float64) float64 {
	imp := best - xi - mean
	if std <= 0 {
		return math.Max(imp, 0)
	}
	z := imp / std
	return imp*normCDF(z) + std*normPDF(z)
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }

// normPDF is the standard normal density.
func normPDF(z float64) float64 { return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi) }

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range m {
		m[i] = cells[i*n : (i+1)*n]
	}
	return m
}

// invert computes the inverse of a via Gauss-Jordan elimination with
// partial pivoting. a is consumed. Deterministic: pivot choice is by
// maximal absolute value with the lowest row winning ties.
func invert(a [][]float64) ([][]float64, bool) {
	n := len(a)
	inv := newMatrix(n)
	for i := range inv {
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot, best := -1, 0.0
		for r := col; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				pivot, best = r, v
			}
		}
		if pivot < 0 || best == 0 {
			return nil, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		p := a[col][col]
		for j := 0; j < n; j++ {
			a[col][j] /= p
			inv[col][j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < n; j++ {
				a[r][j] -= f * a[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	return inv, true
}
