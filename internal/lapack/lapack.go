// Package lapack implements the dense matrix factorization kernels the
// paper's case-study libraries invoke: Cholesky (potrf), triangular inverse
// (trtri), LU (getrf), blocked Householder QR (geqrf/geqrt and the
// application routines ormqr/gemqrt), and the triangular-pentagonal kernels
// (tpqrt/tpmqrt) used by tiled QR.
//
// Matrices are column-major with explicit leading dimensions, as in package
// blas. Routines panic on dimension errors and return an error only for
// numerical failures (non-positive-definite pivot, singular diagonal).
package lapack

import (
	"fmt"
	"math"

	"critter/internal/blas"
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

// blockSize is the panel width of the blocked factorizations: each one
// factors a panel of this many columns with an unblocked loop and hands
// everything outside it to the level-3 routines of package blas.
const blockSize = 16

// Dpotrf computes the lower-triangular Cholesky factor of the symmetric
// positive definite n-by-n matrix a in place (lower triangle referenced).
func Dpotrf(n int, a []float64, lda int) error {
	for j := 0; j < n; j += blockSize {
		jb := min(blockSize, n-j)
		rest := n - j - jb
		diag, left := a[j+j*lda:], a[j:]
		// Bring the block column up to date with the j columns already
		// factored, factor its diagonal block, then solve for the rows below.
		if j > 0 {
			blas.Dsyrk(blas.Lower, false, jb, j, -1, left, lda, 1, diag, lda)
			if rest > 0 {
				blas.Dgemm(false, true, rest, jb, j, -1, a[j+jb:], lda, left, lda, 1, diag[jb:], lda)
			}
		}
		if col := potf2(jb, diag, lda); col >= 0 {
			return ErrNotPD{Col: j + col}
		}
		if rest > 0 {
			blas.Dtrsm(blas.Right, blas.Lower, true, blas.NonUnit, rest, jb, 1, diag, lda, diag[jb:], lda)
		}
	}
	return nil
}

// potf2 is the unblocked Cholesky factorization of one diagonal block,
// left-looking; the rows under the diagonal are taken four at a time so
// that their four dot products overlap. It returns the column of the first
// non-positive pivot, or -1.
func potf2(n int, a []float64, lda int) int {
	for j := 0; j < n; j++ {
		d := a[j+j*lda]
		for k := 0; k < j; k++ {
			d -= a[j+k*lda] * a[j+k*lda]
		}
		if d <= 0 {
			return j
		}
		d = math.Sqrt(d)
		a[j+j*lda] = d
		i := j + 1
		for ; i+4 <= n; i += 4 {
			x := a[i+j*lda : i+j*lda+4]
			s0, s1, s2, s3 := x[0], x[1], x[2], x[3]
			for k := 0; k < j; k++ {
				f := a[j+k*lda]
				y := a[i+k*lda : i+k*lda+4]
				s0 -= y[0] * f
				s1 -= y[1] * f
				s2 -= y[2] * f
				s3 -= y[3] * f
			}
			x[0], x[1], x[2], x[3] = s0/d, s1/d, s2/d, s3/d
		}
		for ; i < n; i++ {
			s := a[i+j*lda]
			for k := 0; k < j; k++ {
				s -= a[i+k*lda] * a[j+k*lda]
			}
			a[i+j*lda] = s / d
		}
	}
	return -1
}

// Dtrtri inverts the lower-triangular n-by-n matrix a in place (non-unit
// diagonal). Only the lower triangle is referenced.
func Dtrtri(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		if a[j+j*lda] == 0 {
			return ErrSingular{Col: j}
		}
	}
	// From the last block column back: the rows under a diagonal block D,
	// whose trailing triangle L22 is already inverted, become
	// -inv(L22)*L21*inv(D); then D is inverted in place.
	for j := (n - 1) / blockSize * blockSize; j >= 0; j -= blockSize {
		jb := min(blockSize, n-j)
		diag := a[j+j*lda:]
		if rest := n - j - jb; rest > 0 {
			below := diag[jb:]
			blas.Dtrmm(blas.Left, blas.Lower, false, blas.NonUnit, rest, jb, 1, a[j+jb+(j+jb)*lda:], lda, below, lda)
			blas.Dtrsm(blas.Right, blas.Lower, false, blas.NonUnit, rest, jb, -1, diag, lda, below, lda)
		}
		trti2(jb, diag, lda)
	}
	return nil
}

// trti2 is the unblocked inverse of one lower-triangular diagonal block,
// from its last column back: under the diagonal, column c of the inverse is
// -inv(L22) * l21 / l11 with L22 the trailing triangle, already inverted.
func trti2(n int, a []float64, lda int) {
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
}

// DgetrfNoPiv computes an LU factorization without pivoting; it is the
// kernel used by Householder reconstruction, where the matrix is known to
// admit an unpivoted factorization.
func DgetrfNoPiv(m, n int, a []float64, lda int) error {
	k := min(m, n)
	for j := 0; j < k; j += blockSize {
		jb := min(blockSize, k-j)
		diag := a[j+j*lda:]
		// Unblocked factorization of the panel a[j:m, j:j+jb].
		for c := 0; c < jb; c++ {
			piv := diag[c+c*lda]
			if piv == 0 {
				return ErrSingular{Col: j + c}
			}
			col := diag[c+1+c*lda : m-j+c*lda]
			for i := range col {
				col[i] /= piv
			}
			for cc := c + 1; cc < jb; cc++ {
				f := diag[c+cc*lda]
				dst := diag[c+1+cc*lda : m-j+cc*lda][:len(col)]
				for i := range dst {
					dst[i] -= col[i] * f
				}
			}
		}
		if right := n - j - jb; right > 0 {
			u12 := diag[jb*lda:]
			blas.Dtrsm(blas.Left, blas.Lower, false, blas.Unit, jb, right, 1, diag, lda, u12, lda)
			if below := m - j - jb; below > 0 {
				blas.Dgemm(false, false, below, right, jb, -1, diag[jb:], lda, u12, lda, 1, u12[jb:], lda)
			}
		}
	}
	return nil
}
