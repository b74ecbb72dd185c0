// Package lapack implements the dense matrix factorization kernels the
// paper's case-study libraries invoke: Cholesky (potrf), triangular inverse
// (trtri), LU (getrf), blocked Householder QR (geqrf/geqrt and the
// application routines larfb/gemqrt), and the triangular-pentagonal kernels
// (tpqrt/tpmqrt) used by tiled QR.
//
// Matrices are column-major with explicit leading dimensions, as in package
// blas. Routines panic on dimension errors and return an error only for
// numerical failures (non-positive-definite pivot, singular diagonal).
package lapack

import (
	"fmt"
	"math"
)

// ErrNotPD reports a non-positive-definite leading minor in Dpotrf.
type ErrNotPD struct{ Col int }

func (e ErrNotPD) Error() string {
	return fmt.Sprintf("lapack: matrix not positive definite at column %d", e.Col)
}

// ErrSingular reports an exactly zero pivot.
type ErrSingular struct{ Col int }

func (e ErrSingular) Error() string {
	return fmt.Sprintf("lapack: singular: zero pivot at column %d", e.Col)
}

// Dpotrf computes the lower-triangular Cholesky factor of the symmetric
// positive definite n-by-n matrix a in place (lower triangle referenced),
// left-looking: column j is brought up to date with the columns before it,
// then scaled by its pivot.
func Dpotrf(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		d := a[j+j*lda]
		for k := 0; k < j; k++ {
			d -= a[j+k*lda] * a[j+k*lda]
		}
		if d <= 0 {
			return ErrNotPD{Col: j}
		}
		d = math.Sqrt(d)
		a[j+j*lda] = d
		for i := j + 1; i < n; i++ {
			s := a[i+j*lda]
			for k := 0; k < j; k++ {
				s -= a[i+k*lda] * a[j+k*lda]
			}
			a[i+j*lda] = s / d
		}
	}
	return nil
}

// Dtrtri inverts the lower-triangular n-by-n matrix a in place (non-unit
// diagonal). Only the lower triangle is referenced.
func Dtrtri(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		if a[j+j*lda] == 0 {
			return ErrSingular{Col: j}
		}
	}
	// From the last column back: under the diagonal, column c of the
	// inverse is -inv(L22) * l21 / l11 with L22 the trailing triangle,
	// already inverted.
	for c := n - 1; c >= 0; c-- {
		d := 1 / a[c+c*lda]
		a[c+c*lda] = d
		x := a[c*lda : c*lda+n]
		// x[c+1:] = inv(L22) * x[c+1:] in place: row i reads rows c+1..i,
		// so the rows are overwritten from the last up.
		for i := n - 1; i > c; i-- {
			s := 0.0
			for k := c + 1; k <= i; k++ {
				s += a[i+k*lda] * x[k]
			}
			x[i] = -d * s
		}
	}
	return nil
}

// DgetrfNoPiv computes an LU factorization without pivoting; it is the
// kernel used by Householder reconstruction, where the matrix is known to
// admit an unpivoted factorization. Right-looking: each column is scaled
// by its pivot, then its rank-1 update is applied to the columns after it.
func DgetrfNoPiv(m, n int, a []float64, lda int) error {
	for j := 0; j < min(m, n); j++ {
		piv := a[j+j*lda]
		if piv == 0 {
			return ErrSingular{Col: j}
		}
		col := a[j+1+j*lda : m+j*lda]
		for i := range col {
			col[i] /= piv
		}
		for c := j + 1; c < n; c++ {
			f := a[j+c*lda]
			dst := a[j+1+c*lda : m+c*lda]
			for i := range dst {
				dst[i] -= col[i] * f
			}
		}
	}
	return nil
}
