package critter

import (
	"critter/internal/blas"
	"critter/internal/lapack"
)

// BLAS and LAPACK interception: the factorization libraries invoke their
// local kernels through these wrappers so the profiler can model and
// selectively execute them (Section V-D). Signatures are parameterized on
// matrix dimensions and flags. Numerical errors from skipped-upstream
// garbage inputs are swallowed during tuning, as the paper tolerates
// (inputs are reset between runs). A factorization's error comes from its
// body, so only a profiler that runs bodies (New) can return one: a skipped
// kernel, and every kernel on a clock (NewClock, NewReference), returns nil.

// The routines the wrappers intercept, interned once: an interception
// carries its routine's handle, not its name.
var (
	nameGemm    = internName("gemm")
	nameSyrk    = internName("syrk")
	nameTrsm    = internName("trsm")
	nameTrmm    = internName("trmm")
	namePotrf   = internName("potrf")
	nameTrtri   = internName("trtri")
	nameGetrfnp = internName("getrfnp")
	nameGeqrf   = internName("geqrf")
	nameGeqrt   = internName("geqrt")
	nameGemqrt  = internName("gemqrt")
	nameTpqrt   = internName("tpqrt")
	nameTpmqrt  = internName("tpmqrt")
)

func boolFlag(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Gemm profiles C = alpha*op(A)*op(B) + beta*C.
func (p *Profiler) Gemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	p.kernel(nameGemm, m, n, k, boolFlag(transA)+2*boolFlag(transB),
		lapack.GemmFlops(m, n, k), func() {
			blas.Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		})
}

// Syrk profiles a symmetric rank-k update.
func (p *Profiler) Syrk(uplo blas.Uplo, trans bool, n, k int, alpha float64, a []float64, lda int, beta float64, c []float64, ldc int) {
	p.kernel(nameSyrk, n, k, 0, int(uplo)+2*boolFlag(trans),
		lapack.SyrkFlops(n, k), func() {
			blas.Dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
		})
}

// Trsm profiles a triangular solve with an m-by-n right-hand side.
func (p *Profiler) Trsm(side blas.Side, uplo blas.Uplo, transA bool, diag blas.Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	flags := int(side) + 2*int(uplo) + 4*boolFlag(transA) + 8*int(diag)
	p.kernel(nameTrsm, m, n, 0, flags,
		lapack.TrsmFlops(side == blas.Left, m, n), func() {
			blas.Dtrsm(side, uplo, transA, diag, m, n, alpha, a, lda, b, ldb)
		})
}

// Trmm profiles a triangular matrix multiply.
func (p *Profiler) Trmm(side blas.Side, uplo blas.Uplo, transA bool, diag blas.Diag, m, n int, alpha float64, a []float64, lda int, b []float64, ldb int) {
	flags := int(side) + 2*int(uplo) + 4*boolFlag(transA) + 8*int(diag)
	p.kernel(nameTrmm, m, n, 0, flags,
		lapack.TrmmFlops(side == blas.Left, m, n), func() {
			blas.Dtrmm(side, uplo, transA, diag, m, n, alpha, a, lda, b, ldb)
		})
}

// Potrf profiles a Cholesky factorization. The numerical error, if any, is
// returned from invocations whose body ran, and nil from skipped ones and
// from every invocation on a clock.
func (p *Profiler) Potrf(n int, a []float64, lda int) error {
	var err error
	p.kernel(namePotrf, n, 0, 0, 0, lapack.PotrfFlops(n), func() {
		err = lapack.Dpotrf(n, a, lda)
	})
	return err
}

// Trtri profiles a lower-triangular inversion.
func (p *Profiler) Trtri(n int, a []float64, lda int) error {
	var err error
	p.kernel(nameTrtri, n, 0, 0, 0, lapack.TrtriFlops(n), func() {
		err = lapack.Dtrtri(n, a, lda)
	})
	return err
}

// GetrfNoPiv profiles an unpivoted LU factorization (Householder
// reconstruction kernel).
func (p *Profiler) GetrfNoPiv(m, n int, a []float64, lda int) error {
	var err error
	p.kernel(nameGetrfnp, m, n, 0, 0, lapack.GetrfFlops(m, n), func() {
		err = lapack.DgetrfNoPiv(m, n, a, lda)
	})
	return err
}

// Geqrf profiles a blocked Householder QR factorization.
func (p *Profiler) Geqrf(m, n, nb int, a []float64, lda int, tau []float64) {
	p.kernel(nameGeqrf, m, n, nb, 0, lapack.GeqrfFlops(m, n), func() {
		lapack.Dgeqrf(m, n, nb, a, lda, tau)
	})
}

// Geqrt profiles a tile QR factorization with inner block size ib.
func (p *Profiler) Geqrt(m, n, ib int, a []float64, lda int, t []float64, ldt int, tau []float64) {
	p.kernel(nameGeqrt, m, n, ib, 0, lapack.GeqrfFlops(m, n), func() {
		lapack.Dgeqrt(m, n, ib, a, lda, t, ldt, tau)
	})
}

// Gemqrt profiles the application of a tile Q (or its transpose).
func (p *Profiler) Gemqrt(trans bool, m, n, k, ib int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int) {
	p.kernel(nameGemqrt, m, n, k, boolFlag(trans), lapack.OrmqrFlops(m, n, k), func() {
		lapack.Dgemqrt(trans, m, n, k, ib, v, ldv, t, ldt, c, ldc)
	})
}

// Tpqrt profiles a triangular-pentagonal QR factorization.
func (p *Profiler) Tpqrt(m, n, ib int, a []float64, lda int, b []float64, ldb int, t []float64, ldt int) {
	p.kernel(nameTpqrt, m, n, ib, 0, lapack.TpqrtFlops(m, n), func() {
		lapack.Dtpqrt(m, n, ib, a, lda, b, ldb, t, ldt)
	})
}

// Tpmqrt profiles the application of a tpqrt block reflector.
func (p *Profiler) Tpmqrt(trans bool, m, n, k, ib int, v []float64, ldv int, t []float64, ldt int, atop []float64, ldat int, b []float64, ldb int) {
	p.kernel(nameTpmqrt, m, n, k, boolFlag(trans), lapack.TpmqrtFlops(m, n, k), func() {
		lapack.Dtpmqrt(trans, m, n, k, ib, v, ldv, t, ldt, atop, ldat, b, ldb)
	})
}
