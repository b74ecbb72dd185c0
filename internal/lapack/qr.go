package lapack

import (
	"math"

	"critter/internal/blas"
)

// Dlarfg generates an elementary Householder reflector H = I - tau*v*v^T
// such that H*[alpha; x] = [beta; 0], with v = [1; x'] (x overwritten by the
// tail of v). It returns (beta, tau).
func Dlarfg(n int, alpha float64, x []float64, incx int) (beta, tau float64) {
	if n <= 1 {
		return alpha, 0
	}
	xnorm := blas.Dnrm2(n-1, x, incx)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(math.Hypot(alpha, xnorm), alpha)
	tau = (beta - alpha) / beta
	scale := 1 / (alpha - beta)
	blas.Dscal(n-1, scale, x, incx)
	return beta, tau
}

// Dgeqr2 computes an unblocked Householder QR factorization of the m-by-n
// matrix a in place: R in the upper triangle, the reflectors' essential
// parts below the diagonal, and scalar factors in tau (length min(m,n)).
func Dgeqr2(m, n int, a []float64, lda int, tau []float64) {
	k := min(m, n)
	for j := 0; j < k; j++ {
		beta, t := Dlarfg(m-j, a[j+j*lda], a[j+1+j*lda:], 1)
		tau[j] = t
		a[j+j*lda] = beta
		if t != 0 && j < n-1 {
			// Apply H_j to A[j:m, j+1:n]: A -= tau * v * (v^T A).
			applyReflectorLeft(m-j, n-j-1, a[j+j*lda:], t, a[j+(j+1)*lda:], lda)
		}
	}
}

// applyReflectorLeft applies H = I - tau*v*v^T to the rows of the r-by-c
// block C, where v = [1; vcol[1:r]] and vcol[0] is the (ignored) beta slot.
func applyReflectorLeft(r, c int, vcol []float64, tau float64, cm []float64, ldc int) {
	for j := 0; j < c; j++ {
		col := cm[j*ldc : j*ldc+r]
		w := col[0]
		for i := 1; i < r; i++ {
			w += vcol[i] * col[i]
		}
		w *= tau
		col[0] -= w
		for i := 1; i < r; i++ {
			col[i] -= vcol[i] * w
		}
	}
}

// Dlarft forms the upper-triangular block reflector factor T (k-by-k) for
// the forward, column-wise reflectors stored in the m-by-k matrix v (unit
// lower trapezoidal, essential parts below the diagonal) with scalars tau.
func Dlarft(m, k int, v []float64, ldv int, tau []float64, t []float64, ldt int) {
	for i := 0; i < k; i++ {
		ti := t[i*ldt : i*ldt+i]
		if tau[i] == 0 {
			clear(ti)
		} else {
			// ti = V[:, 0:i]^T * v_i: row i of V meets the implicit 1 of
			// v_i, the rows below it are a product of stored entries.
			for j := range ti {
				ti[j] = v[i+j*ldv]
			}
			blas.Dgemm(true, false, i, 1, m-i-1, 1, v[i+1:], ldv, v[i+1+i*ldv:], ldv, 1, ti, ldt)
			// Then T[0:i, i] = -tau_i * T[0:i, 0:i] * ti.
			blas.Dtrmm(blas.Left, blas.Upper, false, blas.NonUnit, i, 1, -tau[i], t, ldt, ti, ldt)
		}
		t[i+i*ldt] = tau[i]
	}
}

// workLen is the length of the workspace the block-reflector applications
// keep on their stack: they take the columns of C in groups that fit it, so
// applying a reflector allocates nothing.
const workLen = 128

// blockWork returns the workspace for a k-row block reflector applied to n
// columns, and how many columns it holds at a time: buf, unless a single
// column does not fit it.
func blockWork(buf []float64, k, n int) ([]float64, int) {
	if k > len(buf) {
		return make([]float64, k*n), n
	}
	return buf, min(n, len(buf)/k)
}

// Dlarfb applies the block reflector Q = I - V*T*V^T (or its transpose) from
// the left to the m-by-n matrix C, with V m-by-k unit lower trapezoidal and
// T k-by-k upper triangular: C := (I - V T^op V^T) C.
func Dlarfb(trans bool, m, n, k int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int) {
	if k == 0 || n == 0 {
		return
	}
	var buf [workLen]float64
	w, nc := blockWork(buf[:], k, n)
	for j := 0; j < n; j += nc {
		jb := min(nc, n-j)
		c1 := c[j*ldc:] // the top k rows meet the unit triangle V1 of V
		// W = V^T * C = V1^T*C1 + V2^T*C2, k-by-jb.
		for jj := 0; jj < jb; jj++ {
			copy(w[jj*k:jj*k+k], c1[jj*ldc:jj*ldc+k])
		}
		blas.Dtrmm(blas.Left, blas.Lower, true, blas.Unit, k, jb, 1, v, ldv, w, k)
		if m > k {
			blas.Dgemm(true, false, k, jb, m-k, 1, v[k:], ldv, c1[k:], ldc, 1, w, k)
		}
		// W = T^op * W.
		blas.Dtrmm(blas.Left, blas.Upper, trans, blas.NonUnit, k, jb, 1, t, ldt, w, k)
		// C -= V * W.
		if m > k {
			blas.Dgemm(false, false, m-k, jb, k, -1, v[k:], ldv, w, k, 1, c1[k:], ldc)
		}
		blas.Dtrmm(blas.Left, blas.Lower, false, blas.Unit, k, jb, 1, v, ldv, w, k)
		for jj := 0; jj < jb; jj++ {
			blas.Daxpy(k, -1, w[jj*k:], 1, c1[jj*ldc:], 1)
		}
	}
}

// Dgeqrf computes a blocked Householder QR factorization with panel width
// nb, equivalent to Dgeqr2 in its outputs.
func Dgeqrf(m, n, nb int, a []float64, lda int, tau []float64) {
	k := min(m, n)
	if nb < 1 {
		nb = 1
	}
	// The T factor serves only the trailing update, so a single-panel call
	// (nb >= n, every call candmc.tsqr makes) never allocates it.
	var t []float64
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		Dgeqr2(m-j, jb, a[j+j*lda:], lda, tau[j:j+jb])
		if j+jb < n {
			if t == nil {
				t = make([]float64, nb*nb)
			}
			Dlarft(m-j, jb, a[j+j*lda:], lda, tau[j:j+jb], t, nb)
			Dlarfb(true, m-j, n-j-jb, jb, a[j+j*lda:], lda, t, nb, a[j+(j+jb)*lda:], lda)
		}
	}
}

// Dgeqrt computes a blocked QR factorization of the m-by-n tile a with inner
// block size ib, storing the reflectors in a and the ib-by-ib triangular T
// factors of each block column stacked in t (ldt >= ib, one ib-column group
// per panel block, as in LAPACK DGEQRT).
func Dgeqrt(m, n, ib int, a []float64, lda int, t []float64, ldt int, tau []float64) {
	k := min(m, n)
	if ib < 1 {
		ib = 1
	}
	for j := 0; j < k; j += ib {
		jb := min(ib, k-j)
		Dgeqr2(m-j, jb, a[j+j*lda:], lda, tau[j:j+jb])
		Dlarft(m-j, jb, a[j+j*lda:], lda, tau[j:j+jb], t[j*ldt:], ldt)
		if j+jb < n {
			Dlarfb(true, m-j, n-j-jb, jb, a[j+j*lda:], lda, t[j*ldt:], ldt, a[j+(j+jb)*lda:], lda)
		}
	}
}

// Dgemqrt applies Q^T (trans=true) or Q (trans=false) of a Dgeqrt
// factorization (v m-by-k, t with inner block ib) from the left to the
// m-by-n matrix c.
func Dgemqrt(trans bool, m, n, k, ib int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int) {
	if ib < 1 {
		ib = 1
	}
	if trans {
		for j := 0; j < k; j += ib {
			jb := min(ib, k-j)
			Dlarfb(true, m-j, n, jb, v[j+j*ldv:], ldv, t[j*ldt:], ldt, c[j:], ldc)
		}
		return
	}
	start := ((k - 1) / ib) * ib
	for j := start; j >= 0; j -= ib {
		jb := min(ib, k-j)
		Dlarfb(false, m-j, n, jb, v[j+j*ldv:], ldv, t[j*ldt:], ldt, c[j:], ldc)
	}
}
