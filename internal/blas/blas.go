// Package blas implements the dense basic linear algebra subprograms the
// paper's factorization libraries invoke: the level-3 routines gemm, syrk,
// trsm, trmm plus the level-1/2 helpers needed by the LAPACK layer.
//
// Matrices are column-major with an explicit leading dimension, matching
// LAPACK conventions: element (i, j) of an m-by-n matrix stored in a with
// leading dimension lda >= m lives at a[i+j*lda].
//
// Every routine is one plain loop nest: a kernel body runs only under a
// profiler that executes it (critter.New: the examples, the libraries'
// residual tests, the arithmetic twins of the clock tests). Sweeps run on
// clocks, which charge a kernel's modelled time and never call its body,
// so how fast these loops are moves no timed result. No level-3 routine
// allocates, packs or copies an operand.
//
// Garbage-input contract: the libraries run these routines on buffers that
// skipped kernels left undefined, so for operands of any content (NaN,
// infinities, denormals) a routine returns without panicking, branches on
// no value it loads from a matrix, and writes only inside the m-by-n
// window (or triangle) it is given. beta == 0 and alpha == 0 assign rather
// than scale, so C need not be defined on input. Timings of experiments
// come from the virtual machine model (package sim), never from these
// loops.
package blas

import (
	"fmt"
	"math"
)

// Side selects the side of a triangular multiply or solve.
type Side int

// Side values.
const (
	Left Side = iota
	Right
)

// Uplo selects the stored triangle of a symmetric or triangular matrix.
type Uplo int

// Uplo values.
const (
	Lower Uplo = iota
	Upper
)

// Diag declares whether a triangular matrix has an implicit unit diagonal.
type Diag int

// Diag values.
const (
	NonUnit Diag = iota
	Unit
)

// badDims is the panic message of a routine called with a negative
// dimension. Callers test the dimensions themselves, so that a valid call
// does not pay for boxing them.
func badDims(routine string, dims ...int) string {
	return fmt.Sprintf("blas: %s: negative dimension in %v", routine, dims)
}

// Daxpy computes y += alpha*x over n strided elements.
func Daxpy(n int, alpha float64, x []float64, incx int, y []float64, incy int) {
	for i := 0; i < n; i++ {
		y[i*incy] += alpha * x[i*incx]
	}
}

// Dscal scales n strided elements of x by alpha.
func Dscal(n int, alpha float64, x []float64, incx int) {
	for i := 0; i < n; i++ {
		x[i*incx] *= alpha
	}
}

// Dnrm2 returns the Euclidean norm of n strided elements of x, guarding
// against overflow by scaling.
func Dnrm2(n int, x []float64, incx int) float64 {
	scale, ssq := 0.0, 1.0
	for i := 0; i < n; i++ {
		v := x[i*incx]
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
