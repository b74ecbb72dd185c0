package blas

// The reference oracle of the differential suite: plain triple loops, kept
// one element and one accumulator at a time so that they stay obviously
// right. They share no
// code with the routines they check. With beta == 0 they assign, as
// reference BLAS does.

func refScale(beta, c float64) float64 {
	if beta == 0 {
		return 0
	}
	return beta * c
}

// refGemm computes C = alpha*op(A)*op(B) + beta*C.
func refGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if transA {
			return a[l+i*lda]
		}
		return a[i+l*lda]
	}
	bt := func(l, j int) float64 {
		if transB {
			return b[j+l*ldb]
		}
		return b[l+j*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			c[i+j*ldc] = refScale(beta, c[i+j*ldc])
		}
	}
	if alpha == 0 {
		return
	}
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			blj := alpha * bt(l, j)
			for i := 0; i < m; i++ {
				c[i+j*ldc] += at(i, l) * blj
			}
		}
	}
}

// refSyrk computes the uplo triangle of C = alpha*op(A)*op(A)^T + beta*C.
func refSyrk(uplo Uplo, trans bool, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if trans {
			return a[l+i*lda]
		}
		return a[i+l*lda]
	}
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * at(j, l)
			}
			c[i+j*ldc] = refScale(beta, c[i+j*ldc])
			if alpha != 0 {
				c[i+j*ldc] += alpha * s
			}
		}
	}
}

// materializeTri returns op(A) as a dense n-by-n matrix (zero-filled outside
// the triangle, with unit diagonal applied when diag is Unit).
func materializeTri(uplo Uplo, trans bool, diag Diag, n int, a []float64, lda int) []float64 {
	t := make([]float64, n*n)
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			v := a[i+j*lda]
			if diag == Unit && i == j {
				v = 1
			}
			if trans {
				t[j+i*n] = v
			} else {
				t[i+j*n] = v
			}
		}
	}
	return t
}

// refTrsm solves op(A)*X = alpha*B (Left) or X*op(A) = alpha*B (Right) in
// place by substitution on the materialized op(A).
func refTrsm(side Side, uplo Uplo, transA bool, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	dim := m
	if side == Right {
		dim = n
	}
	t := materializeTri(uplo, transA, diag, dim, a, lda)
	isLower := (uplo == Lower) != transA
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			b[i+j*ldb] = refScale(alpha, b[i+j*ldb])
		}
	}
	if alpha == 0 {
		return
	}
	if side == Left {
		for j := 0; j < n; j++ {
			refSolveTriVec(t, dim, isLower, false, b[j*ldb:j*ldb+m])
		}
		return
	}
	// X*T = B is T^T*X^T = B^T: solve per row of B.
	row := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			row[j] = b[i+j*ldb]
		}
		refSolveTriVec(t, dim, isLower, true, row)
		for j := 0; j < n; j++ {
			b[i+j*ldb] = row[j]
		}
	}
}

// refSolveTriVec solves T x = b (or T^T x = b) in place for dense
// triangular T (dim x dim, column-major, stride dim).
func refSolveTriVec(t []float64, dim int, isLower, trans bool, x []float64) {
	at := func(i, k int) float64 {
		if trans {
			return t[k+i*dim]
		}
		return t[i+k*dim]
	}
	if isLower != trans { // the system solved is lower triangular
		for i := 0; i < dim; i++ {
			s := x[i]
			for k := 0; k < i; k++ {
				s -= at(i, k) * x[k]
			}
			x[i] = s / at(i, i)
		}
		return
	}
	for i := dim - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < dim; k++ {
			s -= at(i, k) * x[k]
		}
		x[i] = s / at(i, i)
	}
}

// refTrmm computes B = alpha*op(A)*B (Left) or B = alpha*B*op(A) (Right)
// in place as a dense product with the materialized op(A).
func refTrmm(side Side, uplo Uplo, transA bool, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	dim := m
	if side == Right {
		dim = n
	}
	if alpha == 0 {
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				b[i+j*ldb] = 0
			}
		}
		return
	}
	t := materializeTri(uplo, transA, diag, dim, a, lda)
	if side == Left {
		col := make([]float64, m)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				col[i] = b[i+j*ldb]
			}
			for i := 0; i < m; i++ {
				s := 0.0
				for k := 0; k < m; k++ {
					s += t[i+k*dim] * col[k]
				}
				b[i+j*ldb] = alpha * s
			}
		}
		return
	}
	row := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			row[j] = b[i+j*ldb]
		}
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += row[k] * t[k+j*dim]
			}
			b[i+j*ldb] = alpha * s
		}
	}
}
