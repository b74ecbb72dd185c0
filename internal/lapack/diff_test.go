package lapack

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"critter/internal/sim"
)

// The differential suite: every routine against the hand-written loops of
// ref_test.go, over sizes from empty to a few tile orders, the reflector
// block widths of the QR family and the column groups of the reflector
// workspace.

var (
	diffSizes  = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 63, 64, 65}
	diffWidths = []int{1, 2, 3, 4, 5, 8, 9, 16, 17} // reflector block widths
)

// sentinel fills the rows between a matrix's row count and its leading
// dimension; a routine that writes there has left its window.
const sentinel = 7777.25

// padMat returns a rows-by-cols matrix of values in [-1, 1] with leading
// dimension rows+pad, the padding rows holding the sentinel.
func padMat(rows, cols, pad int, rng *sim.RNG) (a []float64, ld int) {
	ld = rows + pad
	a = make([]float64, ld*cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < ld; i++ {
			if i < rows {
				a[i+j*ld] = 2*rng.Float64() - 1
			} else {
				a[i+j*ld] = sentinel
			}
		}
	}
	return a, ld
}

// checkSame compares got with want over all ld*cols entries, padding
// included: within tol relative to the largest entry of want inside the
// rows-by-cols window, exactly outside it. The oracles leave alone
// whatever their routine must not touch, so this also checks that.
func checkSame(t *testing.T, what string, rows, cols, ld int, got, want []float64, tol float64) {
	t.Helper()
	scale := 1.0
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			scale = math.Max(scale, math.Abs(want[i+j*ld]))
		}
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < ld; i++ {
			g, w := got[i+j*ld], want[i+j*ld]
			if i >= rows && g != w {
				t.Fatalf("%s: padding (%d,%d) overwritten with %g", what, i, j, g)
			}
			if !(math.Abs(g-w) <= tol*scale) {
				t.Fatalf("%s: (%d,%d) = %g, oracle %g (tol %g)", what, i, j, g, w, tol*scale)
			}
		}
	}
}

func relTol(k int) float64 { return 1e-13 * float64(max(k, 1)) }

// padSPD returns a symmetric, diagonally dominant n-by-n matrix.
func padSPD(n, pad int, rng *sim.RNG) (a []float64, ld int) {
	a, ld = padMat(n, n, pad, rng)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			a[i+j*ld] = a[j+i*ld]
		}
		a[j+j*ld] += float64(n)
	}
	return a, ld
}

func TestDpotrfDifferential(t *testing.T) {
	for _, n := range diffSizes {
		rng := sim.NewRNG(uint64(n))
		a, lda := padSPD(n, 2, rng)
		for j := 0; j < n; j++ { // the upper triangle must not be read
			for i := 0; i < j; i++ {
				a[i+j*lda] = math.NaN()
			}
		}
		want := append([]float64(nil), a...)
		if err := Dpotrf(n, a, lda); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := refPotrf(n, want, lda); err != nil {
			t.Fatalf("n=%d oracle: %v", n, err)
		}
		for i := range a { // NaN != NaN: compare the untouched triangle by bits
			if math.IsNaN(want[i]) {
				if !math.IsNaN(a[i]) {
					t.Fatalf("n=%d: upper triangle written at %d", n, i)
				}
				a[i], want[i] = 0, 0
			}
		}
		checkSame(t, fmt.Sprintf("potrf n=%d", n), n, n, lda, a, want, relTol(n))
	}
}

// TestDpotrfNotPDColumn checks that the blocked factorization reports the
// same failing column as the unblocked one, wherever in a panel it falls.
func TestDpotrfNotPDColumn(t *testing.T) {
	const n = 40
	for _, bad := range []int{0, 1, 15, 16, 17, 31, 32, 39} {
		a, lda := padSPD(n, 1, sim.NewRNG(5))
		a[bad+bad*lda] = -1
		want := append([]float64(nil), a...)
		var got, ref ErrNotPD
		if err := Dpotrf(n, a, lda); !errors.As(err, &got) {
			t.Fatalf("bad=%d: err = %v, want ErrNotPD", bad, err)
		}
		if err := refPotrf(n, want, lda); !errors.As(err, &ref) {
			t.Fatalf("bad=%d: oracle err = %v", bad, err)
		}
		if got.Col != ref.Col || got.Col != bad {
			t.Errorf("bad=%d: column %d, oracle %d", bad, got.Col, ref.Col)
		}
	}
}

func TestDtrtriDifferential(t *testing.T) {
	for _, n := range diffSizes {
		rng := sim.NewRNG(uint64(100 + n))
		a, lda := padMat(n, n, 3, rng)
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				a[i+j*lda] /= float64(n)
			}
			a[j+j*lda] = 1 + rng.Float64()
		}
		want := append([]float64(nil), a...)
		if err := Dtrtri(n, a, lda); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := refTrtri(n, want, lda); err != nil {
			t.Fatalf("n=%d oracle: %v", n, err)
		}
		checkSame(t, fmt.Sprintf("trtri n=%d", n), n, n, lda, a, want, relTol(n))
	}
	a, lda := padSPD(20, 0, sim.NewRNG(1))
	a[17+17*lda] = 0
	var sing ErrSingular
	if err := Dtrtri(20, a, lda); !errors.As(err, &sing) || sing.Col != 17 {
		t.Errorf("zero pivot: err = %v, want ErrSingular at 17", err)
	}
}

func TestDgetrfNoPivDifferential(t *testing.T) {
	for _, m := range diffSizes {
		for _, n := range diffSizes {
			rng := sim.NewRNG(uint64(1000*m + n))
			a, lda := padMat(m, n, 1, rng)
			for j := 0; j < min(m, n); j++ {
				a[j+j*lda] += float64(max(m, n)) // no pivoting needed
			}
			want := append([]float64(nil), a...)
			if err := DgetrfNoPiv(m, n, a, lda); err != nil {
				t.Fatalf("%dx%d: %v", m, n, err)
			}
			if err := refGetrfNoPiv(m, n, want, lda); err != nil {
				t.Fatalf("%dx%d oracle: %v", m, n, err)
			}
			checkSame(t, fmt.Sprintf("getrfnp %dx%d", m, n), m, n, lda, a, want, relTol(min(m, n)))
		}
	}
	// A unit lower triangle eliminates exactly, so zeroing one diagonal
	// entry leaves an exactly zero pivot in that column of a later panel.
	a, lda := padMat(40, 40, 0, sim.NewRNG(2))
	for j := 0; j < 40; j++ {
		clear(a[j*lda : j+j*lda])
		a[j+j*lda] = 1
	}
	a[21+21*lda] = 0
	var sing ErrSingular
	if err := DgetrfNoPiv(40, 40, a, lda); !errors.As(err, &sing) || sing.Col != 21 {
		t.Errorf("dependent column: err = %v, want ErrSingular at 21", err)
	}
}

// reflectors returns an m-by-k V whose strict lower trapezoid holds small
// reflector entries and whose upper triangle, which no routine may read,
// holds NaN, with k scalars tau of which every fifth is zero.
func reflectors(m, k, pad int, rng *sim.RNG) (v []float64, ldv int, tau []float64) {
	v, ldv = padMat(m, k, pad, rng)
	tau = make([]float64, k)
	for j := 0; j < k; j++ {
		for i := 0; i <= j && i < m; i++ {
			v[i+j*ldv] = math.NaN()
		}
		if j%5 != 4 {
			tau[j] = 1 + rng.Float64()/2
		}
	}
	return v, ldv, tau
}

// upperT returns a k-by-k upper triangular T with NaN under the diagonal.
func upperT(k, pad int, rng *sim.RNG) (t []float64, ldt int) {
	t, ldt = padMat(k, k, pad, rng)
	for j := 0; j < k; j++ {
		for i := j + 1; i < k; i++ {
			t[i+j*ldt] = math.NaN()
		}
	}
	return t, ldt
}

func TestDlarftDifferential(t *testing.T) {
	for _, k := range diffWidths {
		for _, m := range diffSizes {
			if m < k {
				continue
			}
			rng := sim.NewRNG(uint64(100*m + k))
			v, ldv, tau := reflectors(m, k, 2, rng)
			got, ldt := padMat(k, k, 1, rng) // the lower triangle of T must survive
			want := append([]float64(nil), got...)
			Dlarft(m, k, v, ldv, tau, got, ldt)
			refLarft(m, k, v, ldv, tau, want, ldt)
			checkSame(t, fmt.Sprintf("larft m=%d k=%d", m, k), k, k, ldt, got, want, relTol(m))
		}
	}
}

func TestDlarfbDifferential(t *testing.T) {
	for _, k := range diffWidths {
		for _, m := range diffSizes {
			if m < k {
				continue
			}
			for _, n := range diffSizes {
				for _, trans := range []bool{false, true} {
					rng := sim.NewRNG(uint64(10000*m + 100*n + k))
					v, ldv, _ := reflectors(m, k, 1, rng)
					tm, ldt := upperT(k, 2, rng)
					c, ldc := padMat(m, n, 3, rng)
					want := append([]float64(nil), c...)
					Dlarfb(trans, m, n, k, v, ldv, tm, ldt, c, ldc)
					refLarfb(trans, m, n, k, v, ldv, tm, ldt, want, ldc)
					what := fmt.Sprintf("larfb trans=%v m=%d n=%d k=%d", trans, m, n, k)
					checkSame(t, what, m, n, ldc, c, want, relTol(m*k))
				}
			}
		}
	}
}

func TestTpApplyLeftDifferential(t *testing.T) {
	for _, k := range diffWidths {
		for _, m := range diffSizes {
			for _, n := range diffSizes {
				for _, trans := range []bool{false, true} {
					rng := sim.NewRNG(uint64(10000*m + 100*n + k))
					v, ldv := padMat(m, k, 1, rng)
					tm, ldt := upperT(k, 1, rng)
					atop, ldat := padMat(k, n, 2, rng)
					b, ldb := padMat(m, n, 3, rng)
					wantA := append([]float64(nil), atop...)
					wantB := append([]float64(nil), b...)
					tpApplyLeft(trans, m, n, k, v, ldv, tm, ldt, atop, ldat, b, ldb)
					refTpApplyLeft(trans, m, n, k, v, ldv, tm, ldt, wantA, ldat, wantB, ldb)
					what := fmt.Sprintf("tpApply trans=%v m=%d n=%d k=%d", trans, m, n, k)
					checkSame(t, what+" top", k, n, ldat, atop, wantA, relTol(m*k))
					checkSame(t, what+" B", m, n, ldb, b, wantB, relTol(m*k))
				}
			}
		}
	}
}

func TestDtpqrt2TFactorDifferential(t *testing.T) {
	for _, n := range diffWidths {
		for _, m := range diffSizes {
			rng := sim.NewRNG(uint64(100*m + n))
			a, lda := padMat(n, n, 1, rng)
			b, ldb := padMat(m, n, 2, rng)
			got, ldt := padMat(n, n, 1, rng)
			want := append([]float64(nil), got...)
			Dtpqrt2(m, n, a, lda, b, ldb, got, ldt)
			tau := make([]float64, n)
			for j := range tau {
				tau[j] = got[j+j*ldt]
			}
			refTpqrt2T(m, n, b, ldb, tau, want, ldt)
			checkSame(t, fmt.Sprintf("tpqrt2 T m=%d n=%d", m, n), n, n, ldt, got, want, relTol(m))
		}
	}
}

// garbage fills a with the values skipped kernels leave behind.
func garbage(a []float64, rng *sim.RNG) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310, 0, math.Copysign(0, -1), math.MaxFloat64, -1e300}
	for i := range a {
		if r := int(rng.Float64() * float64(2*len(odd))); r < len(odd) {
			a[i] = odd[r]
		} else {
			a[i] = 2*rng.Float64() - 1
		}
	}
}

// TestGarbageOperandsNeverPanic runs every kernel the libraries call on the
// state selective execution leaves in their buffers: a numerical error is
// fine, a panic is not.
func TestGarbageOperandsNeverPanic(t *testing.T) {
	rng := sim.NewRNG(17)
	for _, n := range []int{1, 2, 7, 8, 17, 40} {
		for _, ib := range []int{1, 2, 8, n} {
			ib = min(ib, n)
			a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
			tm, tau := make([]float64, ib*n), make([]float64, n)
			fill := func() {
				for _, s := range [][]float64{a, b, c, tm, tau} {
					garbage(s, rng)
				}
			}
			fill()
			_ = Dpotrf(n, a, n) // errors are tolerated under selective execution
			fill()
			_ = Dtrtri(n, a, n)
			fill()
			_ = DgetrfNoPiv(n, n, a, n)
			fill()
			Dgeqrt(n, n, ib, a, n, tm, ib, tau)
			fill()
			Dgemqrt(true, n, n, n, ib, a, n, tm, ib, c, n)
			Dgemqrt(false, n, n, n, ib, a, n, tm, ib, c, n)
			fill()
			Dtpqrt(n, n, ib, a, n, b, n, tm, ib)
			fill()
			Dtpmqrt(true, n, n, n, ib, b, n, tm, ib, a, n, c, n)
			Dtpmqrt(false, n, n, n, ib, b, n, tm, ib, a, n, c, n)
			fill()
			Dgeqrf(n, n, ib, a, n, tau)
		}
	}
}

// TestDgeqrfAllocatesTOnFirstUse pins the two halves of Dgeqrf's lazy T
// factor: a single-panel call (nb >= n, the only shape candmc.tsqr issues)
// allocates nothing, and a call with trailing blocks leaves a and tau
// bit-equal to the form that allocated T on entry.
func TestDgeqrfAllocatesTOnFirstUse(t *testing.T) {
	rng := sim.NewRNG(0x9e0f)
	for _, dims := range [][3]int{{16, 8, 8}, {16, 8, 12}, {32, 4, 4}, {8, 8, 64}} {
		m, n, nb := dims[0], dims[1], dims[2]
		a, ld := padMat(m, n, 1, rng)
		work := make([]float64, len(a))
		tau := make([]float64, n)
		if allocs := testing.AllocsPerRun(20, func() {
			copy(work, a)
			Dgeqrf(m, n, nb, work, ld, tau)
		}); allocs != 0 {
			t.Errorf("Dgeqrf(%d, %d, nb=%d): %v allocs per call, want 0 when nb >= n", m, n, nb, allocs)
		}
	}
	for _, m := range []int{5, 9, 17, 33} {
		for _, n := range []int{2, 5, 9, 17} {
			for _, nb := range []int{1, 2, 3, 4, 8, 16} {
				if nb >= n || n > m {
					continue
				}
				a, ld := padMat(m, n, 2, rng)
				want := append([]float64(nil), a...)
				tau, wantTau := make([]float64, n), make([]float64, n)
				Dgeqrf(m, n, nb, a, ld, tau)
				refGeqrfEagerT(m, n, nb, want, ld, wantTau)
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d nb=%d: a[%d] = %v, eager-T form %v", m, n, nb, i, a[i], want[i])
					}
				}
				for i := range tau {
					if math.Float64bits(tau[i]) != math.Float64bits(wantTau[i]) {
						t.Fatalf("%dx%d nb=%d: tau[%d] = %v, eager-T form %v", m, n, nb, i, tau[i], wantTau[i])
					}
				}
			}
		}
	}
}
