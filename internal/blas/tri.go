package blas

// triBlock is the order below which a triangular solve or multiply stops
// splitting and runs a scalar loop over the stored triangle.
const triBlock = 8

// triMat is op(A) of a triangular routine seen through strides,
// op(A)(i, k) = a[i*ar+k*ac], so no routine forms a transposed or dense
// copy. lower says whether op(A), not A, is lower triangular.
type triMat struct {
	a           []float64
	lda, ar, ac int
	trans       bool
	lower, unit bool
}

func newTriMat(uplo Uplo, trans bool, diag Diag, a []float64, lda int) triMat {
	t := triMat{a: a, lda: lda, ar: 1, ac: lda, trans: trans, lower: (uplo == Lower) != trans, unit: diag == Unit}
	if trans {
		t.ar, t.ac = lda, 1
	}
	return t
}

// from returns the storage of op(A) starting at element (i, k).
func (t triMat) from(i, k int) []float64 { return t.a[i*t.ar+k*t.ac:] }

// sub returns the trailing triangle that starts at diagonal element i.
func (t triMat) sub(i int) triMat {
	t.a = t.from(i, i)
	return t
}

// split returns where to cut a triangle of order n > triBlock in two: a
// multiple of triBlock, so the gemm between the halves starts aligned.
func split(n int) int {
	return (n/2 + triBlock - 1) / triBlock * triBlock
}

// Dtrsm solves op(A)*X = alpha*B (side Left) or X*op(A) = alpha*B (side
// Right) for X, overwriting the m-by-n matrix B. A is the relevant triangle
// of an m-by-m (Left) or n-by-n (Right) triangular matrix; the other
// triangle is not referenced.
func Dtrsm(side Side, uplo Uplo, transA bool, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m < 0 || n < 0 {
		panic(badDims("trsm", m, n))
	}
	scaleWindow(m, n, alpha, b, ldb)
	if m == 0 || n == 0 || alpha == 0 {
		return
	}
	t := newTriMat(uplo, transA, diag, a, lda)
	if side == Left {
		trsmLeft(t, m, n, b, ldb)
	} else {
		trsmRight(t, m, n, b, ldb)
	}
}

// trsmLeft solves op(A)*X = B for the m-by-n B: one half of the rows, a
// gemm that removes their contribution from the other half, then that half.
func trsmLeft(t triMat, m, n int, b []float64, ldb int) {
	if m <= triBlock {
		solveLeft(t, m, n, b, ldb)
		return
	}
	h := split(m)
	if t.lower {
		trsmLeft(t, h, n, b, ldb)
		gemmAcc(t.trans, false, m-h, n, h, -1, t.from(h, 0), t.lda, b, ldb, b[h:], ldb)
		trsmLeft(t.sub(h), m-h, n, b[h:], ldb)
	} else {
		trsmLeft(t.sub(h), m-h, n, b[h:], ldb)
		gemmAcc(t.trans, false, h, n, m-h, -1, t.from(0, h), t.lda, b[h:], ldb, b, ldb)
		trsmLeft(t, h, n, b, ldb)
	}
}

// trsmRight solves X*op(A) = B for the m-by-n B, splitting the columns.
func trsmRight(t triMat, m, n int, b []float64, ldb int) {
	if n <= triBlock {
		solveRight(t, m, n, b, ldb)
		return
	}
	h := split(n)
	if t.lower {
		trsmRight(t.sub(h), m, n-h, b[h*ldb:], ldb)
		gemmAcc(false, t.trans, m, h, n-h, -1, b[h*ldb:], ldb, t.from(h, 0), t.lda, b, ldb)
		trsmRight(t, m, h, b, ldb)
	} else {
		trsmRight(t, m, h, b, ldb)
		gemmAcc(false, t.trans, m, n-h, h, -1, b, ldb, t.from(0, h), t.lda, b[h*ldb:], ldb)
		trsmRight(t.sub(h), m, n-h, b[h*ldb:], ldb)
	}
}

// loadTri copies the triangle of op(A), of order m <= triBlock, into l
// row-major with row stride triBlock, so the base cases of the Left side
// read it with unit stride whatever the storage of A. The diagonal holds
// 1 for a unit triangle, else its reciprocal when recip is set.
func (t triMat) loadTri(m int, recip bool, l *[triBlock * triBlock]float64) {
	for i := 0; i < m; i++ {
		lo, hi := 0, i
		if !t.lower {
			lo, hi = i+1, m
		}
		for k := lo; k < hi; k++ {
			l[i*triBlock+k] = t.a[i*t.ar+k*t.ac]
		}
		d := 1.0
		if !t.unit {
			d = t.a[i*(t.ar+t.ac)]
			if recip {
				d = 1 / d
			}
		}
		l[i*triBlock+i] = d
	}
}

// solveLeft is the base case of trsmLeft: substitution down (lower) or up
// (upper) the columns of B, four at a time so that the four dependency
// chains overlap, for a triangle of order m <= triBlock.
func solveLeft(t triMat, m, n int, b []float64, ldb int) {
	var l [triBlock * triBlock]float64
	t.loadTri(m, true, &l)
	j := 0
	for ; j+4 <= n; j += 4 {
		x0 := b[j*ldb : j*ldb+m]
		x1 := b[(j+1)*ldb : (j+1)*ldb+m][:len(x0)]
		x2 := b[(j+2)*ldb : (j+2)*ldb+m][:len(x0)]
		x3 := b[(j+3)*ldb : (j+3)*ldb+m][:len(x0)]
		for s := range x0 {
			i, lo, hi := s, 0, s
			if !t.lower {
				i, lo, hi = m-1-s, m-s, m
			}
			row := l[i*triBlock : (i+1)*triBlock]
			v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
			for k := lo; k < hi; k++ {
				f := row[k]
				v0 -= f * x0[k]
				v1 -= f * x1[k]
				v2 -= f * x2[k]
				v3 -= f * x3[k]
			}
			d := row[i]
			x0[i], x1[i], x2[i], x3[i] = v0*d, v1*d, v2*d, v3*d
		}
	}
	for ; j < n; j++ {
		x := b[j*ldb : j*ldb+m]
		for s := range x {
			i, lo, hi := s, 0, s
			if !t.lower {
				i, lo, hi = m-1-s, m-s, m
			}
			row := l[i*triBlock : (i+1)*triBlock]
			v := x[i]
			for k := lo; k < hi; k++ {
				v -= row[k] * x[k]
			}
			x[i] = v * row[i]
		}
	}
}

// solveRight is the base case of trsmRight: column c of X is column c of B
// less the solved columns times their entries of op(A), over op(A)(c, c).
func solveRight(t triMat, m, n int, b []float64, ldb int) {
	for s := 0; s < n; s++ {
		c, lo, hi := s, 0, s
		if t.lower {
			c, lo, hi = n-1-s, n-s, n
		}
		bc := b[c*ldb : c*ldb+m]
		for k := lo; k < hi; k++ {
			f := t.a[k*t.ar+c*t.ac]
			bk := b[k*ldb : k*ldb+m][:len(bc)]
			for i := range bc {
				bc[i] -= bk[i] * f
			}
		}
		if !t.unit {
			f := 1 / t.a[c*(t.ar+t.ac)]
			for i := range bc {
				bc[i] *= f
			}
		}
	}
}

// Dtrmm computes B = alpha*op(A)*B (side Left) or B = alpha*B*op(A) (side
// Right), overwriting the m-by-n matrix B. Only the uplo triangle of A is
// referenced.
func Dtrmm(side Side, uplo Uplo, transA bool, diag Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	if m < 0 || n < 0 {
		panic(badDims("trmm", m, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if alpha == 0 {
		scaleWindow(m, n, 0, b, ldb)
		return
	}
	t := newTriMat(uplo, transA, diag, a, lda)
	if side == Left {
		trmmLeft(t, m, n, alpha, b, ldb)
	} else {
		trmmRight(t, m, n, alpha, b, ldb)
	}
}

// trmmLeft computes B = alpha*op(A)*B. The half of the rows that depends on
// both halves of B goes first, while the other half still holds its input.
func trmmLeft(t triMat, m, n int, alpha float64, b []float64, ldb int) {
	if m <= triBlock {
		multLeft(t, m, n, alpha, b, ldb)
		return
	}
	h := split(m)
	if t.lower {
		trmmLeft(t.sub(h), m-h, n, alpha, b[h:], ldb)
		gemmAcc(t.trans, false, m-h, n, h, alpha, t.from(h, 0), t.lda, b, ldb, b[h:], ldb)
		trmmLeft(t, h, n, alpha, b, ldb)
	} else {
		trmmLeft(t, h, n, alpha, b, ldb)
		gemmAcc(t.trans, false, h, n, m-h, alpha, t.from(0, h), t.lda, b[h:], ldb, b, ldb)
		trmmLeft(t.sub(h), m-h, n, alpha, b[h:], ldb)
	}
}

// trmmRight computes B = alpha*B*op(A), splitting the columns.
func trmmRight(t triMat, m, n int, alpha float64, b []float64, ldb int) {
	if n <= triBlock {
		multRight(t, m, n, alpha, b, ldb)
		return
	}
	h := split(n)
	if t.lower {
		trmmRight(t, m, h, alpha, b, ldb)
		gemmAcc(false, t.trans, m, h, n-h, alpha, b[h*ldb:], ldb, t.from(h, 0), t.lda, b, ldb)
		trmmRight(t.sub(h), m, n-h, alpha, b[h*ldb:], ldb)
	} else {
		trmmRight(t.sub(h), m, n-h, alpha, b[h*ldb:], ldb)
		gemmAcc(false, t.trans, m, n-h, h, alpha, b, ldb, t.from(0, h), t.lda, b[h*ldb:], ldb)
		trmmRight(t, m, h, alpha, b, ldb)
	}
}

// multLeft is the base case of trmmLeft. Row i of the product reads rows
// 0..i (lower) or i..m-1 (upper) of B, so the rows are written in the order
// that overwrites each one after its last use; like solveLeft it takes the
// columns of B four at a time.
func multLeft(t triMat, m, n int, alpha float64, b []float64, ldb int) {
	var l [triBlock * triBlock]float64
	t.loadTri(m, false, &l)
	j := 0
	for ; j+4 <= n; j += 4 {
		x0 := b[j*ldb : j*ldb+m]
		x1 := b[(j+1)*ldb : (j+1)*ldb+m][:len(x0)]
		x2 := b[(j+2)*ldb : (j+2)*ldb+m][:len(x0)]
		x3 := b[(j+3)*ldb : (j+3)*ldb+m][:len(x0)]
		for s := range x0 {
			i, lo, hi := m-1-s, 0, m-1-s
			if !t.lower {
				i, lo, hi = s, s+1, m
			}
			row := l[i*triBlock : (i+1)*triBlock]
			d := row[i]
			v0, v1, v2, v3 := d*x0[i], d*x1[i], d*x2[i], d*x3[i]
			for k := lo; k < hi; k++ {
				f := row[k]
				v0 += f * x0[k]
				v1 += f * x1[k]
				v2 += f * x2[k]
				v3 += f * x3[k]
			}
			x0[i], x1[i], x2[i], x3[i] = alpha*v0, alpha*v1, alpha*v2, alpha*v3
		}
	}
	for ; j < n; j++ {
		x := b[j*ldb : j*ldb+m]
		for s := range x {
			i, lo, hi := m-1-s, 0, m-1-s
			if !t.lower {
				i, lo, hi = s, s+1, m
			}
			row := l[i*triBlock : (i+1)*triBlock]
			v := row[i] * x[i]
			for k := lo; k < hi; k++ {
				v += row[k] * x[k]
			}
			x[i] = alpha * v
		}
	}
}

// multRight is the base case of trmmRight. Column c of the product reads
// columns c..n-1 (lower) or 0..c (upper) of B.
func multRight(t triMat, m, n int, alpha float64, b []float64, ldb int) {
	for s := 0; s < n; s++ {
		c, lo, hi := s, s+1, n
		if !t.lower {
			c, lo, hi = n-1-s, 0, n-1-s
		}
		bc := b[c*ldb : c*ldb+m]
		f := alpha
		if !t.unit {
			f *= t.a[c*(t.ar+t.ac)]
		}
		for i := range bc {
			bc[i] *= f
		}
		for k := lo; k < hi; k++ {
			f := alpha * t.a[k*t.ar+c*t.ac]
			bk := b[k*ldb : k*ldb+m][:len(bc)]
			for i := range bc {
				bc[i] += bk[i] * f
			}
		}
	}
}
