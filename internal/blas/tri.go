package blas

// triMat is op(A) of a triangular routine seen through strides, so no
// routine forms a transposed or dense copy. lower says whether op(A), not
// A, is lower triangular.
type triMat struct {
	a           []float64
	ar, ac      int
	lower, unit bool
}

func newTriMat(uplo Uplo, trans bool, diag Diag, a []float64, lda int) triMat {
	ar, ac := strides(trans, lda)
	return triMat{a: a, ar: ar, ac: ac, lower: (uplo == Lower) != trans, unit: diag == Unit}
}

// at returns op(A)(i, k).
func (t triMat) at(i, k int) float64 { return t.a[i*t.ar+k*t.ac] }

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
		// Substitution down (lower) or up (upper) each column of B.
		for j := 0; j < n; j++ {
			x := b[j*ldb : j*ldb+m]
			for s := range x {
				i, lo, hi := s, 0, s
				if !t.lower {
					i, lo, hi = m-1-s, m-s, m
				}
				v := x[i]
				for k := lo; k < hi; k++ {
					v -= t.at(i, k) * x[k]
				}
				if !t.unit {
					v /= t.at(i, i)
				}
				x[i] = v
			}
		}
		return
	}
	// Column c of X is column c of B less the solved columns times their
	// entries of op(A), over op(A)(c, c): the last column first (lower),
	// else the first.
	for s := 0; s < n; s++ {
		c, lo, hi := s, 0, s
		if t.lower {
			c, lo, hi = n-1-s, n-s, n
		}
		bc := b[c*ldb : c*ldb+m]
		for k := lo; k < hi; k++ {
			f := t.at(k, c)
			bk := b[k*ldb : k*ldb+m]
			for i := range bc {
				bc[i] -= bk[i] * f
			}
		}
		if !t.unit {
			d := t.at(c, c)
			for i := range bc {
				bc[i] /= d
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
		// Row i of the product reads rows 0..i (lower) or i..m-1 (upper)
		// of B, so the rows are written in the order that overwrites each
		// one after its last use.
		for j := 0; j < n; j++ {
			x := b[j*ldb : j*ldb+m]
			for s := range x {
				i, lo, hi := m-1-s, 0, m-1-s
				if !t.lower {
					i, lo, hi = s, s+1, m
				}
				v := x[i]
				if !t.unit {
					v *= t.at(i, i)
				}
				for k := lo; k < hi; k++ {
					v += t.at(i, k) * x[k]
				}
				x[i] = alpha * v
			}
		}
		return
	}
	// Column c of the product reads columns c..n-1 (lower) or 0..c
	// (upper) of B, so the columns go in the order that overwrites each
	// one after its last use.
	for s := 0; s < n; s++ {
		c, lo, hi := s, s+1, n
		if !t.lower {
			c, lo, hi = n-1-s, 0, n-1-s
		}
		bc := b[c*ldb : c*ldb+m]
		f := alpha
		if !t.unit {
			f *= t.at(c, c)
		}
		for i := range bc {
			bc[i] *= f
		}
		for k := lo; k < hi; k++ {
			f := alpha * t.at(k, c)
			bk := b[k*ldb : k*ldb+m]
			for i := range bc {
				bc[i] += bk[i] * f
			}
		}
	}
}
