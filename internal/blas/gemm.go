package blas

// scaleWindow applies C = beta*C to an m-by-n window. beta == 0 assigns
// zero, so whatever C held before (NaN, Inf) does not survive.
func scaleWindow(m, n int, beta float64, c []float64, ldc int) {
	if beta == 1 || m == 0 {
		return
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		if beta == 0 {
			clear(cj)
			continue
		}
		for i := range cj {
			cj[i] *= beta
		}
	}
}

// strides returns how an operand stored with leading dimension ld is read
// through op(): op(X)(i, l) = x[i*r+l*c].
func strides(trans bool, ld int) (r, c int) {
	if trans {
		return ld, 1
	}
	return 1, ld
}

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(A) is m-by-k and
// op(B) is k-by-n. With beta == 0, C need not be defined on input.
func Dgemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(badDims("gemm", m, n, k))
	}
	scaleWindow(m, n, beta, c, ldc)
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}
	ar, ac := strides(transA, lda)
	bl, bj := strides(transB, ldb)
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			f := alpha * b[l*bl+j*bj]
			for i := range cj {
				cj[i] += a[i*ar+l*ac] * f
			}
		}
	}
}

// Dsyrk computes the symmetric rank-k update
// C = alpha*A*A^T + beta*C (trans=false, A n-by-k) or
// C = alpha*A^T*A + beta*C (trans=true, A k-by-n),
// referencing only the uplo triangle of C. With beta == 0, that triangle
// need not be defined on input.
func Dsyrk(uplo Uplo, trans bool, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	if n < 0 || k < 0 {
		panic(badDims("syrk", n, k))
	}
	ar, ac := strides(trans, lda)
	for j := 0; j < n; j++ {
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		cj := c[lo+j*ldc : hi+j*ldc]
		scaleWindow(len(cj), 1, beta, cj, ldc)
		if alpha == 0 {
			continue
		}
		for l := 0; l < k; l++ {
			f := alpha * a[j*ar+l*ac]
			for i := range cj {
				cj[i] += a[(lo+i)*ar+l*ac] * f
			}
		}
	}
}
