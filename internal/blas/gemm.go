package blas

// The two micro-kernels every level-3 routine runs on. Both accumulate
// C += alpha*op(A)*op(B) into an m-by-n window of c and read op(B) through
// a pair of strides, op(B)(l, j) = b[l*bl+j*bj], so one kernel serves both
// values of transB. Neither branches on a value it loads.

// gemmAcc accumulates C += alpha*op(A)*op(B). Callers have already applied
// beta to C.
func gemmAcc(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}
	bl, bj := 1, ldb
	if transB {
		bl, bj = ldb, 1
	}
	if transA {
		gemmT(m, n, k, alpha, a, lda, b, bl, bj, c, ldc)
	} else {
		gemmN(m, n, k, alpha, a, lda, b, bl, bj, c, ldc)
	}
}

// gemmN is the N-form (axpy) kernel: A is m-by-k, not transposed, so its
// columns and those of C are unit-stride. The main block updates 4 columns
// of C with 2 columns of A per pass; every slice is cut to a common length
// so the inner loop carries no bounds check.
func gemmN(m, n, k int, alpha float64, a []float64, lda int, b []float64, bl, bj int, c []float64, ldc int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		c0 := c[j*ldc : j*ldc+m]
		c1 := c[(j+1)*ldc : (j+1)*ldc+m][:len(c0)]
		c2 := c[(j+2)*ldc : (j+2)*ldc+m][:len(c0)]
		c3 := c[(j+3)*ldc : (j+3)*ldc+m][:len(c0)]
		p0, p1, p2, p3 := j*bj, (j+1)*bj, (j+2)*bj, (j+3)*bj
		l := 0
		for ; l+2 <= k; l += 2 {
			a0 := a[l*lda : l*lda+m][:len(c0)]
			a1 := a[(l+1)*lda : (l+1)*lda+m][:len(c0)]
			q0, q1 := l*bl, (l+1)*bl
			b00, b10 := alpha*b[p0+q0], alpha*b[p0+q1]
			b01, b11 := alpha*b[p1+q0], alpha*b[p1+q1]
			b02, b12 := alpha*b[p2+q0], alpha*b[p2+q1]
			b03, b13 := alpha*b[p3+q0], alpha*b[p3+q1]
			for i := range c0 {
				x0, x1 := a0[i], a1[i]
				c0[i] += x0*b00 + x1*b10
				c1[i] += x0*b01 + x1*b11
				c2[i] += x0*b02 + x1*b12
				c3[i] += x0*b03 + x1*b13
			}
		}
		if l < k {
			a0 := a[l*lda : l*lda+m][:len(c0)]
			q0 := l * bl
			b00, b01, b02, b03 := alpha*b[p0+q0], alpha*b[p1+q0], alpha*b[p2+q0], alpha*b[p3+q0]
			for i := range c0 {
				x0 := a0[i]
				c0[i] += x0 * b00
				c1[i] += x0 * b01
				c2[i] += x0 * b02
				c3[i] += x0 * b03
			}
		}
	}
	for ; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		pj := j * bj
		l := 0
		for ; l+2 <= k; l += 2 {
			a0 := a[l*lda : l*lda+m][:len(cj)]
			a1 := a[(l+1)*lda : (l+1)*lda+m][:len(cj)]
			b0, b1 := alpha*b[pj+l*bl], alpha*b[pj+(l+1)*bl]
			for i := range cj {
				cj[i] += a0[i]*b0 + a1[i]*b1
			}
		}
		if l < k {
			a0 := a[l*lda : l*lda+m][:len(cj)]
			b0 := alpha * b[pj+l*bl]
			for i := range cj {
				cj[i] += a0[i] * b0
			}
		}
	}
}

// gemmT is the T-form (dot) kernel: A is stored k-by-m, so row i of op(A)
// is the unit-stride column i of a. The main block keeps a 2-by-4 tile of
// C in eight independent accumulators; it is two rows tall, not four,
// because the block reflectors that call it have as few as two.
func gemmT(m, n, k int, alpha float64, a []float64, lda int, b []float64, bl, bj int, c []float64, ldc int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*lda : i*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k][:len(a0)]
		j := 0
		for ; j+4 <= n; j += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			if bl == 1 {
				b0 := b[j*bj : j*bj+k][:len(a0)]
				b1 := b[(j+1)*bj : (j+1)*bj+k][:len(a0)]
				b2 := b[(j+2)*bj : (j+2)*bj+k][:len(a0)]
				b3 := b[(j+3)*bj : (j+3)*bj+k][:len(a0)]
				for l := range a0 {
					x0, x1 := a0[l], a1[l]
					y0, y1, y2, y3 := b0[l], b1[l], b2[l], b3[l]
					s00 += x0 * y0
					s01 += x0 * y1
					s02 += x0 * y2
					s03 += x0 * y3
					s10 += x1 * y0
					s11 += x1 * y1
					s12 += x1 * y2
					s13 += x1 * y3
				}
			} else {
				for l := range a0 {
					x0, x1 := a0[l], a1[l]
					bb := b[l*bl+j*bj:]
					y0, y1, y2, y3 := bb[0], bb[bj], bb[2*bj], bb[3*bj]
					s00 += x0 * y0
					s01 += x0 * y1
					s02 += x0 * y2
					s03 += x0 * y3
					s10 += x1 * y0
					s11 += x1 * y1
					s12 += x1 * y2
					s13 += x1 * y3
				}
			}
			c[i+j*ldc] += alpha * s00
			c[i+1+j*ldc] += alpha * s10
			c[i+(j+1)*ldc] += alpha * s01
			c[i+1+(j+1)*ldc] += alpha * s11
			c[i+(j+2)*ldc] += alpha * s02
			c[i+1+(j+2)*ldc] += alpha * s12
			c[i+(j+3)*ldc] += alpha * s03
			c[i+1+(j+3)*ldc] += alpha * s13
		}
		for ; j < n; j++ {
			var s0, s1 float64
			p := j * bj
			for l := range a0 {
				y := b[p+l*bl]
				s0 += a0[l] * y
				s1 += a1[l] * y
			}
			c[i+j*ldc] += alpha * s0
			c[i+1+j*ldc] += alpha * s1
		}
	}
	if i < m {
		ai := a[i*lda : i*lda+k]
		for j := 0; j < n; j++ {
			s, p := 0.0, j*bj
			for l, x := range ai {
				s += x * b[p+l*bl]
			}
			c[i+j*ldc] += alpha * s
		}
	}
}

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

// Dgemm computes C = alpha*op(A)*op(B) + beta*C where op(A) is m-by-k and
// op(B) is k-by-n. With beta == 0, C need not be defined on input.
func Dgemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic(badDims("gemm", m, n, k))
	}
	scaleWindow(m, n, beta, c, ldc)
	gemmAcc(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// syrkBlock is the order of the diagonal blocks Dsyrk forms in full on the
// stack before it adds their triangle to C.
const syrkBlock = 8

// Dsyrk computes the symmetric rank-k update
// C = alpha*A*A^T + beta*C (trans=false, A n-by-k) or
// C = alpha*A^T*A + beta*C (trans=true, A k-by-n),
// referencing only the uplo triangle of C. With beta == 0, that triangle
// need not be defined on input.
//
// The triangle is cut into block columns of width syrkBlock: the part off
// the diagonal is a plain gemm, the diagonal block a gemm into a stack tile.
func Dsyrk(uplo Uplo, trans bool, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	if n < 0 || k < 0 {
		panic(badDims("syrk", n, k))
	}
	for j := 0; j < n && beta != 1; j++ {
		lo, rows := 0, j+1
		if uplo == Lower {
			lo, rows = j, n-j
		}
		scaleWindow(rows, 1, beta, c[lo+j*ldc:], ldc)
	}
	if alpha == 0 || k == 0 {
		return
	}
	// Row i of op(A) starts at a[i*ar].
	ar := 1
	if trans {
		ar = lda
	}
	var tile [syrkBlock * syrkBlock]float64
	for j0 := 0; j0 < n; j0 += syrkBlock {
		jb := min(syrkBlock, n-j0)
		j1 := j0 + jb
		aj := a[j0*ar:]
		d := tile[:jb*jb]
		clear(d)
		gemmAcc(trans, !trans, jb, jb, k, alpha, aj, lda, aj, lda, d, jb)
		for j := 0; j < jb; j++ {
			lo, hi := 0, j+1
			if uplo == Lower {
				lo, hi = j, jb
			}
			cj := c[j0+(j0+j)*ldc:]
			for i := lo; i < hi; i++ {
				cj[i] += d[i+j*jb]
			}
		}
		if uplo == Lower && j1 < n {
			gemmAcc(trans, !trans, n-j1, jb, k, alpha, a[j1*ar:], lda, aj, lda, c[j1+j0*ldc:], ldc)
		} else if uplo == Upper {
			gemmAcc(trans, !trans, j0, jb, k, alpha, a, lda, aj, lda, c[j0*ldc:], ldc)
		}
	}
}
