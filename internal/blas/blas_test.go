package blas

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"critter/internal/sim"
)

// randMat fills an m-by-n column-major matrix with deterministic values.
func randMat(m, n int, seed uint64) []float64 {
	r := sim.NewRNG(seed)
	a := make([]float64, m*n)
	for i := range a {
		a[i] = 2*r.Float64() - 1
	}
	return a
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestDdotAxpyScal(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	Daxpy(3, 2, x, 1, y, 1)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Errorf("axpy got %v", y)
	}
	Dscal(3, 0.5, y, 1)
	if y[0] != 3 || y[1] != 4.5 || y[2] != 6 {
		t.Errorf("scal got %v", y)
	}
}

func TestStridedOps(t *testing.T) {
	x := []float64{1, 0, 2, 0, 3, 0}
	y := []float64{1, 9, 1, 9, 1, 9}
	Daxpy(3, 2, x, 2, y, 2)
	if want := []float64{3, 9, 5, 9, 7, 9}; !slices.Equal(y, want) {
		t.Errorf("strided axpy got %v, want %v", y, want)
	}
}

func TestDnrm2(t *testing.T) {
	if got := Dnrm2(2, []float64{3, 4}, 1); math.Abs(got-5) > 1e-15 {
		t.Errorf("nrm2 = %g, want 5", got)
	}
	if Dnrm2(0, nil, 1) != 0 {
		t.Error("empty nrm2 should be 0")
	}
	// Overflow guard: huge values must not overflow to +Inf.
	big := []float64{1e200, 1e200}
	if got := Dnrm2(2, big, 1); math.IsInf(got, 1) {
		t.Error("nrm2 overflowed")
	}
}

func TestDgemmAllTransCombos(t *testing.T) {
	m, n, k := 6, 5, 4
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			lda, ldb := m, k
			if ta {
				lda = k
			}
			if tb {
				ldb = n
			}
			a := randMat(lda, m*k/lda, uint64(10+btoi(ta)))
			b := randMat(ldb, k*n/ldb, uint64(20+btoi(tb)))
			c := randMat(m, n, 30)
			ref := append([]float64(nil), c...)
			Dgemm(ta, tb, m, n, k, 1.5, a, lda, b, ldb, -0.5, c, m)
			refGemm(ta, tb, m, n, k, 1.5, a, lda, b, ldb, -0.5, ref, m)
			if d := maxAbsDiff(c, ref); d > 1e-12 {
				t.Errorf("gemm ta=%v tb=%v mismatch %g", ta, tb, d)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDgemmEdgeCases(t *testing.T) {
	// k=0 reduces to C = beta*C.
	c := []float64{1, 2, 3, 4}
	Dgemm(false, false, 2, 2, 0, 1, nil, 1, nil, 1, 2, c, 2)
	for i, want := range []float64{2, 4, 6, 8} {
		if c[i] != want {
			t.Errorf("k=0 gemm c[%d]=%g want %g", i, c[i], want)
		}
	}
	// alpha=0 also reduces to scaling.
	c2 := []float64{1, 1, 1, 1}
	a := []float64{1, 2, 3, 4}
	Dgemm(false, false, 2, 2, 2, 0, a, 2, a, 2, 3, c2, 2)
	for i := range c2 {
		if c2[i] != 3 {
			t.Errorf("alpha=0 gemm c[%d]=%g want 3", i, c2[i])
		}
	}
}

func TestDgemmSubmatrixStride(t *testing.T) {
	// Operate on a 2x2 block inside a 4x4 matrix via lda.
	a := randMat(4, 4, 42)
	b := randMat(4, 4, 43)
	c := make([]float64, 4*4)
	Dgemm(false, false, 2, 2, 2, 1, a[1+1*4:], 4, b[1+1*4:], 4, 0, c[1+1*4:], 4)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			s := 0.0
			for l := 0; l < 2; l++ {
				s += a[1+i+(1+l)*4] * b[1+l+(1+j)*4]
			}
			if got := c[1+i+(1+j)*4]; math.Abs(got-s) > 1e-13 {
				t.Errorf("submatrix gemm (%d,%d) = %g want %g", i, j, got, s)
			}
		}
	}
}

func TestDsyrkMatchesGemm(t *testing.T) {
	n, k := 6, 4
	for _, trans := range []bool{false, true} {
		for _, uplo := range []Uplo{Lower, Upper} {
			lda := n
			if trans {
				lda = k
			}
			a := randMat(lda, n*k/lda, 50)
			c := randMat(n, n, 51)
			// Symmetrize C so full-gemm reference matches on the triangle.
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					c[i+j*n] = c[j+i*n]
				}
			}
			ref := append([]float64(nil), c...)
			Dsyrk(uplo, trans, n, k, 2, a, lda, 0.5, c, n)
			refGemm(trans, !trans, n, n, k, 2, a, lda, a, lda, 0.5, ref, n)
			for j := 0; j < n; j++ {
				lo, hi := 0, j+1
				if uplo == Lower {
					lo, hi = j, n
				}
				for i := lo; i < hi; i++ {
					if math.Abs(c[i+j*n]-ref[i+j*n]) > 1e-12 {
						t.Errorf("syrk trans=%v uplo=%v (%d,%d): %g vs %g",
							trans, uplo, i, j, c[i+j*n], ref[i+j*n])
					}
				}
			}
		}
	}
}

// triRandMat builds a well-conditioned triangular matrix.
func triRandMat(uplo Uplo, n int, seed uint64) []float64 {
	a := randMat(n, n, seed)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inTri := i >= j // lower
			if uplo == Upper {
				inTri = i <= j
			}
			if !inTri {
				a[i+j*n] = 0
			}
		}
		a[j+j*n] = 3 + math.Abs(a[j+j*n]) // diagonal dominance
	}
	return a
}

func TestDtrsmAllCombos(t *testing.T) {
	m, n := 5, 4
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []bool{false, true} {
				for _, diag := range []Diag{NonUnit, Unit} {
					dim := m
					if side == Right {
						dim = n
					}
					a := triRandMat(uplo, dim, 60)
					b := randMat(m, n, 61)
					x := append([]float64(nil), b...)
					Dtrsm(side, uplo, trans, diag, m, n, 1.5, a, dim, x, m)
					// Verify op(A)*X = 1.5*B (or X*op(A)).
					check := make([]float64, m*n)
					tmat := materializeTri(uplo, trans, diag, dim, a, dim)
					if side == Left {
						refGemm(false, false, m, n, m, 1, tmat, m, x, m, 0, check, m)
					} else {
						refGemm(false, false, m, n, n, 1, x, m, tmat, n, 0, check, m)
					}
					want := make([]float64, m*n)
					for i := range b {
						want[i] = 1.5 * b[i]
					}
					if d := maxAbsDiff(check, want); d > 1e-11 {
						t.Errorf("trsm side=%v uplo=%v trans=%v diag=%v residual %g",
							side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

func TestDtrmmAllCombos(t *testing.T) {
	m, n := 5, 4
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []bool{false, true} {
				for _, diag := range []Diag{NonUnit, Unit} {
					dim := m
					if side == Right {
						dim = n
					}
					a := triRandMat(uplo, dim, 70)
					b := randMat(m, n, 71)
					got := append([]float64(nil), b...)
					Dtrmm(side, uplo, trans, diag, m, n, 2, a, dim, got, m)
					ref := make([]float64, m*n)
					tmat := materializeTri(uplo, trans, diag, dim, a, dim)
					if side == Left {
						refGemm(false, false, m, n, m, 2, tmat, m, b, m, 0, ref, m)
					} else {
						refGemm(false, false, m, n, n, 2, b, m, tmat, n, 0, ref, m)
					}
					if d := maxAbsDiff(got, ref); d > 1e-11 {
						t.Errorf("trmm side=%v uplo=%v trans=%v diag=%v mismatch %g",
							side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

func TestTrsmTrmmRoundTripProperty(t *testing.T) {
	// trsm(trmm(B)) == B for any triangular system: a strong invariant.
	f := func(seed uint64) bool {
		m, n := 6, 3
		a := triRandMat(Lower, m, seed)
		b := randMat(m, n, seed+1)
		x := append([]float64(nil), b...)
		Dtrmm(Left, Lower, false, NonUnit, m, n, 1, a, m, x, m)
		Dtrsm(Left, Lower, false, NonUnit, m, n, 1, a, m, x, m)
		return maxAbsDiff(x, b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmPanicsOnNegativeDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dgemm(false, false, -1, 2, 2, 1, nil, 1, nil, 1, 0, nil, 1)
}
