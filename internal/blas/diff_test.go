package blas

import (
	"fmt"
	"math"
	"testing"

	"critter/internal/sim"
)

// The differential suite: every level-3 routine against the naive oracle of
// ref_test.go, over shapes from empty to past the tile orders the studies
// run.

// diffSizes covers empty, small, and the tile orders the studies run.
var diffSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 63, 64, 65}

var (
	diffAlphas = []float64{0, 1, -1, 0.5}
	diffBetas  = []float64{0, 1, -0.5}
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

// padTri returns a well-conditioned n-by-n matrix for triangular tests:
// off-diagonal entries of order 1/n, diagonal in [1, 2]. Both triangles are
// filled, so a routine that reads the wrong one gets a wrong answer.
func padTri(n, pad int, rng *sim.RNG) (a []float64, ld int) {
	a, ld = padMat(n, n, pad, rng)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[i+j*ld] /= float64(n)
		}
		a[j+j*ld] = 1 + rng.Float64()
	}
	return a, ld
}

// checkWindow compares the rows-by-cols windows of got and want to within
// tol relative to the largest reference entry, and requires every padding
// row of got to still hold the sentinel.
func checkWindow(t *testing.T, what string, rows, cols, ld int, got, want []float64, tol float64) {
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
			if i >= rows {
				if g != sentinel {
					t.Fatalf("%s: padding (%d,%d) overwritten with %g", what, i, j, g)
				}
				continue
			}
			if !(math.Abs(g-w) <= tol*scale) {
				t.Fatalf("%s: (%d,%d) = %g, oracle %g (tol %g)", what, i, j, g, w, tol*scale)
			}
		}
	}
}

func relTol(k int) float64 { return 1e-13 * float64(max(k, 1)) }

// opDims returns the stored shape of an operand whose op() is r-by-c.
func opDims(trans bool, r, c int) (int, int) {
	if trans {
		return c, r
	}
	return r, c
}

func diffGemm(t *testing.T, ta, tb bool, m, n, k int, alpha, beta float64, seed uint64) {
	t.Helper()
	rng := sim.NewRNG(seed)
	ar, ac := opDims(ta, m, k)
	br, bc := opDims(tb, k, n)
	a, lda := padMat(ar, ac, 1, rng)
	b, ldb := padMat(br, bc, 2, rng)
	c, ldc := padMat(m, n, 3, rng)
	want := append([]float64(nil), c...)
	Dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	refGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
	what := fmt.Sprintf("gemm ta=%v tb=%v %dx%dx%d alpha=%g beta=%g", ta, tb, m, n, k, alpha, beta)
	checkWindow(t, what, m, n, ldc, c, want, relTol(k))
}

func TestDgemmDifferential(t *testing.T) {
	sizes := diffSizes
	if testing.Short() {
		sizes = []int{0, 1, 3, 4, 5, 9, 17}
	}
	// Every shape and trans pair, the scalar pairs taken in rotation ...
	cases := 0
	for _, m := range sizes {
		for _, n := range sizes {
			for _, k := range sizes {
				for tr := 0; tr < 4; tr++ {
					alpha := diffAlphas[cases%len(diffAlphas)]
					beta := diffBetas[cases/len(diffAlphas)%len(diffBetas)]
					diffGemm(t, tr&1 != 0, tr&2 != 0, m, n, k, alpha, beta, uint64(cases))
					cases++
				}
			}
		}
	}
	// ... and every scalar pair on shapes with a remainder in each dimension.
	for _, s := range [][3]int{{5, 7, 9}, {9, 5, 3}, {17, 6, 2}, {4, 8, 16}, {1, 1, 1}} {
		for tr := 0; tr < 4; tr++ {
			for _, alpha := range diffAlphas {
				for _, beta := range diffBetas {
					diffGemm(t, tr&1 != 0, tr&2 != 0, s[0], s[1], s[2], alpha, beta, 99)
				}
			}
		}
	}
}

func TestDsyrkDifferential(t *testing.T) {
	cases := uint64(0)
	for _, n := range diffSizes {
		for _, k := range diffSizes {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, trans := range []bool{false, true} {
					for _, alpha := range diffAlphas {
						for _, beta := range diffBetas {
							cases++
							rng := sim.NewRNG(cases)
							ar, ac := opDims(trans, n, k)
							a, lda := padMat(ar, ac, 2, rng)
							c, ldc := padMat(n, n, 1, rng)
							want := append([]float64(nil), c...)
							Dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
							refSyrk(uplo, trans, n, k, alpha, a, lda, beta, want, ldc)
							// The oracle leaves the other triangle alone, so
							// comparing the full window checks that too.
							what := fmt.Sprintf("syrk uplo=%v trans=%v n=%d k=%d alpha=%g beta=%g", uplo, trans, n, k, alpha, beta)
							checkWindow(t, what, n, n, ldc, c, want, relTol(k))
						}
					}
				}
			}
		}
	}
}

// forEachTri runs f over every (side, uplo, trans, diag) combination.
func forEachTri(f func(side Side, uplo Uplo, trans bool, diag Diag)) {
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []bool{false, true} {
				for _, diag := range []Diag{NonUnit, Unit} {
					f(side, uplo, trans, diag)
				}
			}
		}
	}
}

// diffTri checks one triangular routine against its oracle on an m-by-n B.
func diffTri(t *testing.T, name string, got, ref func(Side, Uplo, bool, Diag, int, int, float64, []float64, int, []float64, int), m, n int, alpha float64, seed uint64) {
	t.Helper()
	forEachTri(func(side Side, uplo Uplo, trans bool, diag Diag) {
		rng := sim.NewRNG(seed)
		dim := m
		if side == Right {
			dim = n
		}
		a, lda := padTri(dim, 2, rng)
		b, ldb := padMat(m, n, 1, rng)
		want := append([]float64(nil), b...)
		a0 := append([]float64(nil), a...)
		got(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
		ref(side, uplo, trans, diag, m, n, alpha, a0, lda, want, ldb)
		what := fmt.Sprintf("%s side=%v uplo=%v trans=%v diag=%v %dx%d alpha=%g", name, side, uplo, trans, diag, m, n, alpha)
		checkWindow(t, what, m, n, ldb, b, want, relTol(dim))
		for i := range a {
			if a[i] != a0[i] {
				t.Fatalf("%s: A modified at %d", what, i)
			}
		}
	})
}

func TestDtrsmDtrmmDifferential(t *testing.T) {
	cases := 0
	for _, m := range diffSizes {
		for _, n := range diffSizes {
			if testing.Short() && m*n > 17*17 {
				continue
			}
			alpha := diffAlphas[cases%len(diffAlphas)]
			cases++
			diffTri(t, "trsm", Dtrsm, refTrsm, m, n, alpha, uint64(cases))
			diffTri(t, "trmm", Dtrmm, refTrmm, m, n, alpha, uint64(cases))
		}
	}
	for _, alpha := range diffAlphas {
		diffTri(t, "trsm", Dtrsm, refTrsm, 9, 5, alpha, 7)
		diffTri(t, "trmm", Dtrmm, refTrmm, 5, 17, alpha, 8)
	}
}

// TestBetaZeroAssigns is the regression test of the beta == 0 contract:
// the libraries call Gemm and Syrk with beta = 0 into reused buffers that
// skipped kernels have left undefined, and nothing of that may survive.
func TestBetaZeroAssigns(t *testing.T) {
	const m, n, k = 9, 6, 5
	rng := sim.NewRNG(3)
	a, lda := padMat(m, k, 0, rng)
	b, ldb := padMat(k, n, 0, rng)
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	c := make([]float64, m*n)
	for _, alpha := range []float64{0, 1} {
		for i := range c {
			c[i] = poison[i%len(poison)]
		}
		want := make([]float64, m*n)
		Dgemm(false, false, m, n, k, alpha, a, lda, b, ldb, 0, c, m)
		refGemm(false, false, m, n, k, alpha, a, lda, b, ldb, 0, want, m)
		checkWindow(t, fmt.Sprintf("gemm alpha=%g into poisoned C", alpha), m, n, m, c, want, relTol(k))
	}
	s := make([]float64, m*m)
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, alpha := range []float64{0, 1} {
			for i := range s {
				s[i] = poison[i%len(poison)]
			}
			Dsyrk(uplo, false, m, k, alpha, a, lda, 0, s, m)
			for j := 0; j < m; j++ {
				for i := 0; i < m; i++ {
					inTri := (uplo == Lower) == (i >= j) || i == j
					v := s[i+j*m]
					finite := !math.IsNaN(v) && !math.IsInf(v, 0)
					if inTri && !finite {
						t.Fatalf("syrk uplo=%v alpha=%g: (%d,%d) = %g survived beta = 0", uplo, alpha, i, j, v)
					}
					if !inTri && finite {
						t.Fatalf("syrk uplo=%v alpha=%g: (%d,%d) outside the triangle was written", uplo, alpha, i, j)
					}
				}
			}
		}
	}
}

// garbage fills a with the values skipped kernels leave behind: NaN, both
// infinities, denormals, zeros and huge magnitudes among ordinary numbers.
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

// TestGarbageOperandsNeverPanic is the garbage-input contract: whatever the
// operands hold, a level-3 routine returns, and touches nothing outside its
// window.
func TestGarbageOperandsNeverPanic(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, n := range []int{1, 4, 7, 8, 9, 17, 33} {
		m, k := n+2, n+1
		ld := m + 3
		a, b, c := make([]float64, ld*ld), make([]float64, ld*ld), make([]float64, ld*ld)
		pad := func() {
			garbage(a, rng)
			garbage(b, rng)
			garbage(c, rng)
			for j := 0; j < ld; j++ {
				for i := m; i < ld; i++ {
					c[i+j*ld] = sentinel
				}
			}
		}
		padOK := func(what string) {
			t.Helper()
			for j := 0; j < ld; j++ {
				for i := m; i < ld; i++ {
					if c[i+j*ld] != sentinel {
						t.Fatalf("%s n=%d: padding (%d,%d) overwritten", what, n, i, j)
					}
				}
			}
		}
		for tr := 0; tr < 4; tr++ {
			for _, beta := range diffBetas {
				pad()
				Dgemm(tr&1 != 0, tr&2 != 0, m, n, k, -1, a, ld, b, ld, beta, c, ld)
				padOK("gemm")
			}
		}
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []bool{false, true} {
				pad()
				Dsyrk(uplo, trans, m, k, 1, a, ld, 0, c, ld)
				padOK("syrk")
			}
		}
		forEachTri(func(side Side, uplo Uplo, trans bool, diag Diag) {
			pad()
			Dtrsm(side, uplo, trans, diag, m, n, 1, a, ld, c, ld)
			padOK("trsm")
			pad()
			Dtrmm(side, uplo, trans, diag, m, n, -1, a, ld, c, ld)
			padOK("trmm")
		})
	}
}

// FuzzDgemmShapes lets the fuzzer pick the shape, the transposes, the
// paddings and the scalars of a gemm and compares it with the oracle.
func FuzzDgemmShapes(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint8(0), uint64(1))
	f.Add(uint8(5), uint8(7), uint8(3), uint8(0xff), uint64(2))
	f.Add(uint8(0), uint8(4), uint8(65), uint8(0x1d), uint64(3))
	f.Add(uint8(67), uint8(1), uint8(2), uint8(0x62), uint64(4))
	f.Fuzz(func(t *testing.T, mm, nn, kk, flags uint8, seed uint64) {
		m, n, k := int(mm)%72, int(nn)%72, int(kk)%72
		ta, tb := flags&1 != 0, flags&2 != 0
		alpha := diffAlphas[int(flags>>2)%len(diffAlphas)]
		beta := diffBetas[int(flags>>4)%len(diffBetas)]
		diffGemm(t, ta, tb, m, n, k, alpha, beta, seed)
	})
}
