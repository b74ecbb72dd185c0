package lapack

import "critter/internal/blas"

// Dtpqrt2 computes a QR factorization of the (n+m)-by-n "triangular on top
// of pentagonal" pair [A; B] with L=0 (B fully general): A is n-by-n upper
// triangular and is overwritten by the updated R; B is m-by-n and is
// overwritten by the essential parts of the Householder vectors (the top
// n-by-n identity block of V is implicit). T (n-by-n upper triangular)
// receives the block reflector factor.
func Dtpqrt2(m, n int, a []float64, lda int, b []float64, ldb int, t []float64, ldt int) {
	for j := 0; j < n; j++ {
		// Generate the reflector from [A[j,j]; B[:, j]].
		beta, tj := Dlarfg(m+1, a[j+j*lda], b[j*ldb:], 1)
		t[j+j*ldt] = tj
		a[j+j*lda] = beta
		// Apply H_j to the remaining columns of the pair.
		if tj != 0 {
			for jj := j + 1; jj < n; jj++ {
				w := a[j+jj*lda]
				for i := 0; i < m; i++ {
					w += b[i+j*ldb] * b[i+jj*ldb]
				}
				w *= tj
				a[j+jj*lda] -= w
				for i := 0; i < m; i++ {
					b[i+jj*ldb] -= b[i+j*ldb] * w
				}
			}
		}
	}
	// Build T above its diagonal, which already holds tau: the top n-by-n
	// identity of the reflectors adds nothing there, so
	// T[0:j, j] = -tau_j * T[0:j, 0:j] * (B[:, 0:j]^T * B[:, j]).
	for j := 1; j < n; j++ {
		tj := t[j*ldt : j*ldt+j]
		blas.Dgemm(true, false, j, 1, m, 1, b, ldb, b[j*ldb:], ldb, 0, tj, ldt)
		blas.Dtrmm(blas.Left, blas.Upper, false, blas.NonUnit, j, 1, -t[j+j*ldt], t, ldt, tj, ldt)
	}
}

// Dtpqrt computes a blocked QR factorization of the pair [A; B] (L=0) with
// inner block size ib, storing per-block T factors stacked in t (ldt >= ib),
// as in LAPACK DTPQRT.
func Dtpqrt(m, n, ib int, a []float64, lda int, b []float64, ldb int, t []float64, ldt int) {
	if ib < 1 {
		ib = 1
	}
	for j := 0; j < n; j += ib {
		jb := min(ib, n-j)
		Dtpqrt2(m, jb, a[j+j*lda:], lda, b[j*ldb:], ldb, t[j*ldt:], ldt)
		if j+jb < n {
			// Apply the block reflector to the trailing columns of the pair:
			// top rows A[j:j+jb, j+jb:] and all of B[:, j+jb:].
			tpApplyLeft(true, m, n-j-jb, jb,
				b[j*ldb:], ldb,
				t[j*ldt:], ldt,
				a[j+(j+jb)*lda:], lda,
				b[(j+jb)*ldb:], ldb)
		}
	}
}

// tpApplyLeft applies Q^T (trans) or Q, Q = I - V' T V'^T with
// V' = [I_k; V], to the stacked pair [Atop (k-by-n); B (m-by-n)]:
//
//	W = T^op (Atop + V^T B); Atop -= W; B -= V W.
func tpApplyLeft(trans bool, m, n, k int, v []float64, ldv int, t []float64, ldt int, atop []float64, ldat int, b []float64, ldb int) {
	if k == 0 || n == 0 {
		return
	}
	var buf [workLen]float64
	w, nc := blockWork(buf[:], k, n)
	for j := 0; j < n; j += nc {
		jb := min(nc, n-j)
		aj, bj := atop[j*ldat:], b[j*ldb:]
		for jj := 0; jj < jb; jj++ {
			copy(w[jj*k:jj*k+k], aj[jj*ldat:jj*ldat+k])
		}
		blas.Dgemm(true, false, k, jb, m, 1, v, ldv, bj, ldb, 1, w, k)
		blas.Dtrmm(blas.Left, blas.Upper, trans, blas.NonUnit, k, jb, 1, t, ldt, w, k)
		for jj := 0; jj < jb; jj++ {
			blas.Daxpy(k, -1, w[jj*k:], 1, aj[jj*ldat:], 1)
		}
		blas.Dgemm(false, false, m, jb, k, -1, v, ldv, w, k, 1, bj, ldb)
	}
}

// Dtpmqrt applies Q^T (trans=true) or Q (trans=false) of a Dtpqrt
// factorization (V m-by-k in v, per-block T factors in t with inner block
// ib) from the left to the stacked pair [Atop (k-by-n); B (m-by-n)].
func Dtpmqrt(trans bool, m, n, k, ib int, v []float64, ldv int, t []float64, ldt int, atop []float64, ldat int, b []float64, ldb int) {
	if ib < 1 {
		ib = 1
	}
	if trans {
		for j := 0; j < k; j += ib {
			jb := min(ib, k-j)
			tpApplyLeft(true, m, n, jb, v[j*ldv:], ldv, t[j*ldt:], ldt, atop[j:], ldat, b, ldb)
		}
		return
	}
	start := ((k - 1) / ib) * ib
	for j := start; j >= 0; j -= ib {
		jb := min(ib, k-j)
		tpApplyLeft(false, m, n, jb, v[j*ldv:], ldv, t[j*ldt:], ldt, atop[j:], ldat, b, ldb)
	}
}
