package lapack

// Flop-count formulas for the kernels, used by the profiler's machine model
// to assign virtual durations. Leading-order terms follow the standard
// LAPACK operation counts.

// GemmFlops returns the flop count of C += op(A)op(B) with op(A) m-by-k.
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// SyrkFlops returns the flop count of a rank-k update of an n-by-n triangle.
func SyrkFlops(n, k int) float64 { return float64(n) * float64(n+1) * float64(k) }

// TrsmFlops returns the flop count of a triangular solve with an m-by-n
// right-hand side (triangle on the given side).
func TrsmFlops(left bool, m, n int) float64 {
	if left {
		return float64(n) * float64(m) * float64(m)
	}
	return float64(m) * float64(n) * float64(n)
}

// TrmmFlops returns the flop count of a triangular multiply.
func TrmmFlops(left bool, m, n int) float64 { return TrsmFlops(left, m, n) }

// PotrfFlops returns the flop count of an n-by-n Cholesky factorization.
func PotrfFlops(n int) float64 { fn := float64(n); return fn * fn * fn / 3 }

// TrtriFlops returns the flop count of an n-by-n triangular inversion.
func TrtriFlops(n int) float64 { fn := float64(n); return fn * fn * fn / 3 }

// GetrfFlops returns the flop count of an m-by-n LU factorization.
func GetrfFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	if m >= n {
		return fm*fn*fn - fn*fn*fn/3
	}
	return fn*fm*fm - fm*fm*fm/3
}

// GeqrfFlops returns the flop count of an m-by-n Householder QR (m >= n).
func GeqrfFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2*fm*fn*fn - 2*fn*fn*fn/3
}

// OrmqrFlops returns the flop count of applying k reflectors (from an
// m-by-k factorization) to an m-by-n matrix from the left.
func OrmqrFlops(m, n, k int) float64 {
	fm, fn, fk := float64(m), float64(n), float64(k)
	return 4*fm*fn*fk - 2*fn*fk*fk
}

// TpqrtFlops returns the flop count of the triangular-pentagonal QR of an
// n-by-n triangle stacked on an m-by-n block (L=0).
func TpqrtFlops(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2*fm*fn*fn + 2*fn*fn*fn/3
}

// TpmqrtFlops returns the flop count of applying a tpqrt block reflector
// (V m-by-k) to a stacked pair with n columns.
func TpmqrtFlops(m, n, k int) float64 {
	fm, fn, fk := float64(m), float64(n), float64(k)
	return 4*fm*fn*fk + 2*fn*fk*fk
}
