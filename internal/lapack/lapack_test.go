package lapack

import (
	"math"
	"testing"
	"testing/quick"

	"critter/internal/blas"
	"critter/internal/sim"
)

func randMat(m, n int, seed uint64) []float64 {
	r := sim.NewRNG(seed)
	a := make([]float64, m*n)
	for i := range a {
		a[i] = 2*r.Float64() - 1
	}
	return a
}

// spdMat builds a well-conditioned SPD matrix A = G*G^T + n*I.
func spdMat(n int, seed uint64) []float64 {
	g := randMat(n, n, seed)
	a := make([]float64, n*n)
	blas.Dgemm(false, true, n, n, n, 1, g, n, g, n, 0, a, n)
	for i := 0; i < n; i++ {
		a[i+i*n] += float64(n)
	}
	return a
}

func frobNorm(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestDpotrfReconstruction(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := spdMat(n, uint64(n))
		l := append([]float64(nil), a...)
		if err := Dpotrf(n, l, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Zero the strict upper triangle of L.
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				l[i+j*n] = 0
			}
		}
		llt := make([]float64, n*n)
		blas.Dgemm(false, true, n, n, n, 1, l, n, l, n, 0, llt, n)
		for i := range llt {
			llt[i] -= a[i]
		}
		if rel := frobNorm(llt) / frobNorm(a); rel > 1e-12 {
			t.Errorf("n=%d: ||A-LL^T||/||A|| = %g", n, rel)
		}
	}
}

func TestDpotrfRejectsIndefinite(t *testing.T) {
	a := []float64{1, 0, 0, -1} // eigenvalues 1, -1
	err := Dpotrf(2, a, 2)
	if err == nil {
		t.Fatal("expected ErrNotPD")
	}
	if _, ok := err.(ErrNotPD); !ok {
		t.Fatalf("got %T, want ErrNotPD", err)
	}
}

func TestDtrtriIdentity(t *testing.T) {
	for _, n := range []int{1, 3, 8, 20} {
		a := spdMat(n, uint64(100+n))
		if err := Dpotrf(n, a, n); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				a[i+j*n] = 0
			}
		}
		l := append([]float64(nil), a...)
		if err := Dtrtri(n, a, n); err != nil {
			t.Fatal(err)
		}
		// L * L^{-1} must be the identity.
		prod := make([]float64, n*n)
		blas.Dgemm(false, false, n, n, n, 1, l, n, a, n, 0, prod, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod[i+j*n]-want) > 1e-11 {
					t.Fatalf("n=%d: (L*Linv)[%d,%d] = %g", n, i, j, prod[i+j*n])
				}
			}
		}
	}
}

func TestDtrtriSingular(t *testing.T) {
	a := []float64{1, 2, 0, 0} // zero at (1,1)
	if err := Dtrtri(2, a, 2); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestDgetrfNoPiv(t *testing.T) {
	// Diagonally dominant matrices admit unpivoted LU.
	n := 10
	a := spdMat(n, 7)
	lu := append([]float64(nil), a...)
	if err := DgetrfNoPiv(n, n, lu, n); err != nil {
		t.Fatal(err)
	}
	l := make([]float64, n*n)
	u := make([]float64, n*n)
	for j := 0; j < n; j++ {
		l[j+j*n] = 1
		for i := j + 1; i < n; i++ {
			l[i+j*n] = lu[i+j*n]
		}
		for i := 0; i <= j; i++ {
			u[i+j*n] = lu[i+j*n]
		}
	}
	prod := make([]float64, n*n)
	blas.Dgemm(false, false, n, n, n, 1, l, n, u, n, 0, prod, n)
	for i := range prod {
		prod[i] -= a[i]
	}
	if rel := frobNorm(prod) / frobNorm(a); rel > 1e-12 {
		t.Errorf("unpivoted LU residual %g", rel)
	}
}

// Dorm2r applies Q (trans=false) or Q^T (trans=true) from the left to the
// m-by-n matrix c, where Q is defined by the k reflectors of a Dgeqr2/Dgeqrf
// factorization stored in a (m-by-k) and tau.
func Dorm2r(trans bool, m, n, k int, a []float64, lda int, tau []float64, c []float64, ldc int) {
	if trans {
		for i := 0; i < k; i++ {
			applyReflectorToC(m, n, i, a, lda, tau[i], c, ldc)
		}
		return
	}
	for i := k - 1; i >= 0; i-- {
		applyReflectorToC(m, n, i, a, lda, tau[i], c, ldc)
	}
}

// applyReflectorToC applies reflector i of a Dgeqr2 factorization to the
// m-by-n matrix c.
func applyReflectorToC(m, n, i int, a []float64, lda int, tau float64, c []float64, ldc int) {
	if tau == 0 {
		return
	}
	for j := 0; j < n; j++ {
		w := c[i+j*ldc]
		for r := i + 1; r < m; r++ {
			w += a[r+i*lda] * c[r+j*ldc]
		}
		w *= tau
		c[i+j*ldc] -= w
		for r := i + 1; r < m; r++ {
			c[r+j*ldc] -= a[r+i*lda] * w
		}
	}
}

// Dorgqr forms the first k columns of Q explicitly into q (m-by-k) from a
// Dgeqr2/Dgeqrf factorization in a and tau.
func Dorgqr(m, k int, a []float64, lda int, tau []float64, q []float64, ldq int) {
	for j := 0; j < k; j++ {
		for i := 0; i < m; i++ {
			q[i+j*ldq] = 0
		}
		q[j+j*ldq] = 1
	}
	Dorm2r(false, m, k, k, a, lda, tau, q, ldq)
}

// qrResidual factors a copy of A and returns (||A-QR||/||A||, ||Q^TQ-I||).
func qrResidual(t *testing.T, m, n, nb int, a []float64) (float64, float64) {
	t.Helper()
	qr := append([]float64(nil), a...)
	tau := make([]float64, min(m, n))
	if nb <= 0 {
		Dgeqr2(m, n, qr, m, tau)
	} else {
		Dgeqrf(m, n, nb, qr, m, tau)
	}
	k := min(m, n)
	q := make([]float64, m*k)
	Dorgqr(m, k, qr, m, tau, q, m)
	// R: k-by-n upper triangle of qr.
	r := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, k-1); i++ {
			r[i+j*k] = qr[i+j*m]
		}
	}
	res := make([]float64, m*n)
	blas.Dgemm(false, false, m, n, k, 1, q, m, r, k, 0, res, m)
	for i := range res {
		res[i] -= a[i]
	}
	// Orthogonality: Q^T Q - I.
	qtq := make([]float64, k*k)
	blas.Dgemm(true, false, k, k, m, 1, q, m, q, m, 0, qtq, k)
	for i := 0; i < k; i++ {
		qtq[i+i*k] -= 1
	}
	return frobNorm(res) / frobNorm(a), frobNorm(qtq)
}

func TestDgeqr2AndDgeqrf(t *testing.T) {
	for _, dims := range [][2]int{{6, 6}, {12, 5}, {20, 8}, {33, 17}} {
		m, n := dims[0], dims[1]
		a := randMat(m, n, uint64(m+n*13))
		for _, nb := range []int{0, 1, 3, 8} { // 0 => unblocked geqr2
			res, orth := qrResidual(t, m, n, nb, a)
			if res > 1e-12 {
				t.Errorf("%dx%d nb=%d: QR residual %g", m, n, nb, res)
			}
			if orth > 1e-12 {
				t.Errorf("%dx%d nb=%d: orthogonality %g", m, n, nb, orth)
			}
		}
	}
}

func TestBlockedMatchesUnblockedQR(t *testing.T) {
	m, n := 14, 9
	a := randMat(m, n, 5)
	qr1 := append([]float64(nil), a...)
	tau1 := make([]float64, n)
	Dgeqr2(m, n, qr1, m, tau1)
	qr2 := append([]float64(nil), a...)
	tau2 := make([]float64, n)
	Dgeqrf(m, n, 4, qr2, m, tau2)
	for i := range qr1 {
		if math.Abs(qr1[i]-qr2[i]) > 1e-11 {
			t.Fatalf("blocked/unblocked factor mismatch at %d: %g vs %g", i, qr1[i], qr2[i])
		}
	}
}

func TestDorm2rAppliesQT(t *testing.T) {
	m, n := 10, 4
	a := randMat(m, n, 21)
	qr := append([]float64(nil), a...)
	tau := make([]float64, n)
	Dgeqr2(m, n, qr, m, tau)
	// Q^T * A must equal [R; 0].
	c := append([]float64(nil), a...)
	Dorm2r(true, m, n, n, qr, m, tau, c, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want := 0.0
			if i <= j {
				want = qr[i+j*m]
			}
			if math.Abs(c[i+j*m]-want) > 1e-11 {
				t.Errorf("(Q^T A)[%d,%d] = %g, want %g", i, j, c[i+j*m], want)
			}
		}
	}
	// Applying Q then Q^T is the identity.
	c2 := randMat(m, 3, 22)
	orig := append([]float64(nil), c2...)
	Dorm2r(false, m, 3, n, qr, m, tau, c2, m)
	Dorm2r(true, m, 3, n, qr, m, tau, c2, m)
	for i := range c2 {
		if math.Abs(c2[i]-orig[i]) > 1e-11 {
			t.Fatalf("Q Q^T != I at %d", i)
		}
	}
}

func TestDgeqrtMatchesGeqrf(t *testing.T) {
	m, n := 12, 8
	a := randMat(m, n, 31)
	for _, ib := range []int{1, 2, 4, 8} {
		v := append([]float64(nil), a...)
		tmat := make([]float64, ib*n)
		tau := make([]float64, n)
		Dgeqrt(m, n, ib, v, m, tmat, ib, tau)
		ref := append([]float64(nil), a...)
		tauRef := make([]float64, n)
		Dgeqr2(m, n, ref, m, tauRef)
		for i := range v {
			if math.Abs(v[i]-ref[i]) > 1e-11 {
				t.Fatalf("ib=%d: geqrt factor differs from geqr2 at %d", ib, i)
			}
		}
		// Dgemqrt(Q^T) on A yields R.
		c := append([]float64(nil), a...)
		Dgemqrt(true, m, n, n, ib, v, m, tmat, ib, c, m)
		for j := 0; j < n; j++ {
			for i := j + 1; i < m; i++ {
				if math.Abs(c[i+j*m]) > 1e-10 {
					t.Errorf("ib=%d: below-diagonal residue %g at (%d,%d)", ib, c[i+j*m], i, j)
				}
			}
		}
		// Q then Q^T is identity.
		x := randMat(m, 2, 33)
		orig := append([]float64(nil), x...)
		Dgemqrt(false, m, 2, n, ib, v, m, tmat, ib, x, m)
		Dgemqrt(true, m, 2, n, ib, v, m, tmat, ib, x, m)
		for i := range x {
			if math.Abs(x[i]-orig[i]) > 1e-10 {
				t.Fatalf("ib=%d: gemqrt roundtrip failed", ib)
			}
		}
	}
}

func TestDtpqrtFactorization(t *testing.T) {
	// Stack an upper-triangular R0 on a general B and verify the combined
	// factorization: [R0; B] = Q * [R; 0].
	n, m := 6, 9
	r0 := randMat(n, n, 41)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			r0[i+j*n] = 0
		}
		r0[j+j*n] += 4 // well-conditioned
	}
	b := randMat(m, n, 42)
	for _, ib := range []int{1, 2, 3, 6} {
		r := append([]float64(nil), r0...)
		v := append([]float64(nil), b...)
		tmat := make([]float64, ib*n)
		Dtpqrt(m, n, ib, r, n, v, m, tmat, ib)
		// Verify by applying Q to [R; 0]: must reproduce [R0; B].
		top := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				top[i+j*n] = r[i+j*n]
			}
		}
		bot := make([]float64, m*n)
		Dtpmqrt(false, m, n, n, ib, v, m, tmat, ib, top, n, bot, m)
		for i := range top {
			if math.Abs(top[i]-r0[i]) > 1e-10 {
				t.Fatalf("ib=%d: top reconstruction error %g at %d", ib, math.Abs(top[i]-r0[i]), i)
			}
		}
		for i := range bot {
			if math.Abs(bot[i]-b[i]) > 1e-10 {
				t.Fatalf("ib=%d: bottom reconstruction error %g at %d", ib, math.Abs(bot[i]-b[i]), i)
			}
		}
	}
}

func TestDtpmqrtRoundTrip(t *testing.T) {
	n, m := 4, 7
	r0 := randMat(n, n, 51)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			r0[i+j*n] = 0
		}
		r0[j+j*n] += 3
	}
	b := randMat(m, n, 52)
	r := append([]float64(nil), r0...)
	v := append([]float64(nil), b...)
	tmat := make([]float64, 2*n)
	Dtpqrt(m, n, 2, r, n, v, m, tmat, 2)
	// Apply Q^T then Q to a random stacked pair: identity.
	topX := randMat(n, 3, 53)
	botX := randMat(m, 3, 54)
	topO := append([]float64(nil), topX...)
	botO := append([]float64(nil), botX...)
	Dtpmqrt(true, m, 3, n, 2, v, m, tmat, 2, topX, n, botX, m)
	Dtpmqrt(false, m, 3, n, 2, v, m, tmat, 2, topX, n, botX, m)
	for i := range topX {
		if math.Abs(topX[i]-topO[i]) > 1e-10 {
			t.Fatal("tpmqrt top roundtrip failed")
		}
	}
	for i := range botX {
		if math.Abs(botX[i]-botO[i]) > 1e-10 {
			t.Fatal("tpmqrt bottom roundtrip failed")
		}
	}
}

func TestDlarfgProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		n := 2 + r.Intn(10)
		alpha := 2*r.Float64() - 1
		x := make([]float64, n-1)
		for i := range x {
			x[i] = 2*r.Float64() - 1
		}
		full := append([]float64{alpha}, x...)
		normBefore := blas.Dnrm2(n, full, 1)
		xc := append([]float64(nil), x...)
		beta, tau := Dlarfg(n, alpha, xc, 1)
		// H preserves norm: |beta| == ||[alpha; x]||.
		if math.Abs(math.Abs(beta)-normBefore) > 1e-12*math.Max(1, normBefore) {
			return false
		}
		// tau in [0, 2] for real reflectors.
		return tau >= 0 && tau <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFlopsFormulasPositive(t *testing.T) {
	cases := []struct {
		name string
		v    float64
	}{
		{"gemm", GemmFlops(4, 5, 6)},
		{"syrk", SyrkFlops(4, 5)},
		{"trsmL", TrsmFlops(true, 4, 5)},
		{"trsmR", TrsmFlops(false, 4, 5)},
		{"trmm", TrmmFlops(true, 4, 5)},
		{"potrf", PotrfFlops(4)},
		{"trtri", TrtriFlops(4)},
		{"getrf", GetrfFlops(6, 4)},
		{"getrfWide", GetrfFlops(4, 6)},
		{"geqrf", GeqrfFlops(6, 4)},
		{"ormqr", OrmqrFlops(6, 4, 3)},
		{"tpqrt", TpqrtFlops(6, 4)},
		{"tpmqrt", TpmqrtFlops(6, 4, 3)},
	}
	for _, c := range cases {
		if c.v <= 0 {
			t.Errorf("%s flops = %g, want positive", c.name, c.v)
		}
	}
	if GemmFlops(4, 5, 6) != 240 {
		t.Errorf("gemm flops = %g, want 240", GemmFlops(4, 5, 6))
	}
}
