package lapack

import "math"

// The reference oracle of the differential suite: hand-written,
// single-accumulator loops that call nothing in blas.

// refPotrf is the unblocked left-looking Cholesky factorization.
func refPotrf(n int, a []float64, lda int) error {
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

// refTrtri inverts a lower triangle column by column: column j of the
// inverse solves L x = e_j by forward substitution.
func refTrtri(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		if a[j+j*lda] == 0 {
			return ErrSingular{Col: j}
		}
	}
	x := make([]float64, n)
	inv := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		for i := j; i < n; i++ {
			s := x[i]
			for k := j; k < i; k++ {
				s -= a[i+k*lda] * x[k]
			}
			x[i] = s / a[i+i*lda]
		}
		copy(inv[j*n:j*n+n], x)
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			a[i+j*lda] = inv[i+j*n]
		}
	}
	return nil
}

// refGetrfNoPiv is the unblocked right-looking LU without pivoting.
func refGetrfNoPiv(m, n int, a []float64, lda int) error {
	for j := 0; j < min(m, n); j++ {
		piv := a[j+j*lda]
		if piv == 0 {
			return ErrSingular{Col: j}
		}
		for i := j + 1; i < m; i++ {
			a[i+j*lda] /= piv
		}
		for c := j + 1; c < n; c++ {
			for i := j + 1; i < m; i++ {
				a[i+c*lda] -= a[i+j*lda] * a[j+c*lda]
			}
		}
	}
	return nil
}

// refLarft forms the block reflector factor T one dot product at a time.
func refLarft(m, k int, v []float64, ldv int, tau []float64, t []float64, ldt int) {
	for i := 0; i < k; i++ {
		ti := tau[i]
		t[i+i*ldt] = ti
		if i == 0 || ti == 0 {
			for j := 0; j < i; j++ {
				t[j+i*ldt] = 0
			}
			continue
		}
		for j := 0; j < i; j++ {
			s := v[i+j*ldv]
			for r := i + 1; r < m; r++ {
				s += v[r+j*ldv] * v[r+i*ldv]
			}
			t[j+i*ldt] = -ti * s
		}
		for j := 0; j < i; j++ {
			s := 0.0
			for r := j; r < i; r++ {
				s += t[j+r*ldt] * t[r+i*ldt]
			}
			t[j+i*ldt] = s
		}
	}
}

// refTrmvUpper computes w = T^op * w for each of the n columns of the
// k-by-n matrix w, T upper triangular.
func refTrmvUpper(trans bool, k, n int, t []float64, ldt int, w []float64) {
	col := make([]float64, k)
	for j := 0; j < n; j++ {
		copy(col, w[j*k:j*k+k])
		for i := 0; i < k; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				switch {
				case !trans && l >= i:
					s += t[i+l*ldt] * col[l]
				case trans && l <= i:
					s += t[l+i*ldt] * col[l]
				}
			}
			w[i+j*k] = s
		}
	}
}

// refLarfb applies C := (I - V T^op V^T) C with V unit lower trapezoidal.
func refLarfb(trans bool, m, n, k int, v []float64, ldv int, t []float64, ldt int, c []float64, ldc int) {
	if k == 0 {
		return
	}
	w := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			s := c[l+j*ldc]
			for i := l + 1; i < m; i++ {
				s += v[i+l*ldv] * c[i+j*ldc]
			}
			w[l+j*k] = s
		}
	}
	refTrmvUpper(trans, k, n, t, ldt, w)
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			wl := w[l+j*k]
			c[l+j*ldc] -= wl
			for i := l + 1; i < m; i++ {
				c[i+j*ldc] -= v[i+l*ldv] * wl
			}
		}
	}
}

// refTpApplyLeft applies Q^op, Q = I - V' T V'^T with V' = [I_k; V], to the
// stacked pair [Atop; B]: W = T^op (Atop + V^T B); Atop -= W; B -= V W.
func refTpApplyLeft(trans bool, m, n, k int, v []float64, ldv int, t []float64, ldt int, atop []float64, ldat int, b []float64, ldb int) {
	w := make([]float64, k*n)
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			s := atop[l+j*ldat]
			for i := 0; i < m; i++ {
				s += v[i+l*ldv] * b[i+j*ldb]
			}
			w[l+j*k] = s
		}
	}
	refTrmvUpper(trans, k, n, t, ldt, w)
	for j := 0; j < n; j++ {
		for l := 0; l < k; l++ {
			atop[l+j*ldat] -= w[l+j*k]
			for i := 0; i < m; i++ {
				b[i+j*ldb] -= v[i+l*ldv] * w[l+j*k]
			}
		}
	}
}

// refTpqrt2T builds the T factor of a Dtpqrt2 factorization from the
// reflectors in b (m-by-n) and their scalars tau.
func refTpqrt2T(m, n int, b []float64, ldb int, tau []float64, t []float64, ldt int) {
	for j := 0; j < n; j++ {
		t[j+j*ldt] = tau[j]
		for i := 0; i < j; i++ {
			s := 0.0
			for r := 0; r < m; r++ {
				s += b[r+i*ldb] * b[r+j*ldb]
			}
			t[i+j*ldt] = -tau[j] * s
		}
		for i := 0; i < j; i++ {
			s := 0.0
			for r := i; r < j; r++ {
				s += t[i+r*ldt] * t[r+j*ldt]
			}
			t[i+j*ldt] = s
		}
	}
}

// refGeqrfEagerT is Dgeqrf as it stood while it allocated its T factor on
// entry, whether or not a trailing block would ever read it.
func refGeqrfEagerT(m, n, nb int, a []float64, lda int, tau []float64) {
	k := min(m, n)
	if nb < 1 {
		nb = 1
	}
	t := make([]float64, nb*nb)
	for j := 0; j < k; j += nb {
		jb := min(nb, k-j)
		Dgeqr2(m-j, jb, a[j+j*lda:], lda, tau[j:j+jb])
		if j+jb < n {
			Dlarft(m-j, jb, a[j+j*lda:], lda, tau[j:j+jb], t, nb)
			Dlarfb(true, m-j, n-j-jb, jb, a[j+j*lda:], lda, t, nb, a[j+(j+jb)*lda:], lda)
		}
	}
}
