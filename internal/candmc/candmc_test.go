package candmc

import (
	"math"
	"testing"

	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/lapack"
	"critter/internal/mpi"
	"critter/internal/sim"
)

func runGrid(t *testing.T, pr, pc int, eps float64, body func(p *critter.Profiler, g *grid.Grid2D)) {
	t.Helper()
	w := mpi.NewWorld(pr*pc, sim.DefaultMachine(), 13)
	if err := w.Run(func(c *mpi.Comm) {
		p, cc := critter.New(c, critter.Options{Policy: critter.Conditional, Eps: eps})
		g := grid.New2D(cc, pr, pc)
		body(p, g)
	}); err != nil {
		t.Fatalf("world: %v", err)
	}
}

func frob(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestConfigValidate(t *testing.T) {
	ok := Config{M: 64, N: 16, B: 4, PR: 2, PC: 2}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{M: 64, N: 16, B: 4, PR: 2, PC: 3},
		{M: 66, N: 16, B: 4, PR: 2, PC: 2},
		{M: 64, N: 18, B: 4, PR: 2, PC: 2},
		{M: 16, N: 64, B: 4, PR: 2, PC: 2},
		{M: 96, N: 16, B: 4, PR: 3, PC: 2, Panel: PanelTSQR}, // non-power-of-2 PR
	}
	for i, c := range bad {
		if c.Validate(c.PR*c.PC) == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// gramCheck factors with the given config and verifies A^T A == R^T R.
func gramCheck(t *testing.T, pr, pc int, cfg Config) {
	t.Helper()
	if err := cfg.Validate(pr * pc); err != nil {
		t.Fatal(err)
	}
	runGrid(t, pr, pc, 0, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewMatrix(g, cfg)
		a.FillGeneral(9)
		orig := a.GatherDense(0)
		QR(p, a, cfg)
		r := a.GatherDense(0)
		if g.All.Rank() != 0 {
			return
		}
		m, n := cfg.M, cfg.N
		for j := 0; j < n; j++ {
			for i := j + 1; i < m; i++ {
				r[i+j*m] = 0
			}
		}
		ata := make([]float64, n*n)
		rtr := make([]float64, n*n)
		blas.Dgemm(true, false, n, n, m, 1, orig, m, orig, m, 0, ata, n)
		blas.Dgemm(true, false, n, n, m, 1, r, m, r, m, 0, rtr, n)
		diff := make([]float64, n*n)
		for i := range diff {
			diff[i] = ata[i] - rtr[i]
		}
		if rel := frob(diff) / frob(ata); rel > 1e-8 {
			t.Errorf("%s grid %dx%d %dx%d b=%d: ||A^TA-R^TR||/||A^TA|| = %g",
				cfg.Panel, pr, pc, cfg.M, cfg.N, cfg.B, rel)
		}
	})
}

func TestQRGramTSQR2x2(t *testing.T) {
	gramCheck(t, 2, 2, Config{M: 64, N: 16, B: 4, PR: 2, PC: 2, Panel: PanelTSQR})
}

func TestQRGramCholQR2(t *testing.T) {
	gramCheck(t, 2, 2, Config{M: 64, N: 16, B: 4, PR: 2, PC: 2, Panel: PanelCholQR2})
}

func TestQRGramTallGrid(t *testing.T) {
	gramCheck(t, 4, 1, Config{M: 64, N: 16, B: 4, PR: 4, PC: 1, Panel: PanelTSQR})
}

func TestQRGramWideGrid(t *testing.T) {
	gramCheck(t, 2, 4, Config{M: 64, N: 32, B: 4, PR: 2, PC: 4, Panel: PanelTSQR})
}

func TestQRGramLargerBlock(t *testing.T) {
	gramCheck(t, 2, 2, Config{M: 64, N: 32, B: 8, PR: 2, PC: 2, Panel: PanelCholQR2})
}

func TestQRGramSingleRank(t *testing.T) {
	gramCheck(t, 1, 1, Config{M: 32, N: 16, B: 4, PR: 1, PC: 1, Panel: PanelTSQR})
}

// TestHouseholderReconstruction verifies the core identity of the
// reconstruction on a dense local problem: given an orthonormal tall Q1
// (negated), LU(Q1 - [I;0]) = Y W and T = -W Y0^{-T} yield
// Q1 = [I;0] - Y T Y0^T.
func TestHouseholderReconstruction(t *testing.T) {
	m, b := 12, 4
	// Build an orthonormal Q1 from a QR factorization.
	a := make([]float64, m*b)
	r := sim.NewRNG(3)
	for i := range a {
		a[i] = 2*r.Float64() - 1
	}
	tau, tf := make([]float64, b), make([]float64, b*b)
	qr := append([]float64(nil), a...)
	lapack.Dgeqrt(m, b, b, qr, m, tf, b, tau)
	// Q1 = Q [I; 0].
	q1 := make([]float64, m*b)
	for i := 0; i < b; i++ {
		q1[i+i*m] = 1
	}
	lapack.Dgemqrt(false, m, b, b, b, qr, m, tf, b, q1, m)
	// Negate (the reconstruction-robust sign choice).
	for i := range q1 {
		q1[i] = -q1[i]
	}
	// LU(Q1 - [I;0]).
	work := append([]float64(nil), q1...)
	for i := 0; i < b; i++ {
		work[i+i*m] -= 1
	}
	if err := lapack.DgetrfNoPiv(m, b, work, m); err != nil {
		t.Fatalf("unpivoted LU: %v", err)
	}
	// Y: unit lower trapezoidal; W: upper b x b.
	y := make([]float64, m*b)
	w := make([]float64, b*b)
	for c := 0; c < b; c++ {
		y[c+c*m] = 1
		for rr := c + 1; rr < m; rr++ {
			y[rr+c*m] = work[rr+c*m]
		}
		for rr := 0; rr <= c; rr++ {
			w[rr+c*b] = work[rr+c*m]
		}
	}
	// T = -W Y0^{-T}.
	tm := append([]float64(nil), w...)
	y0 := make([]float64, b*b)
	for c := 0; c < b; c++ {
		y0[c+c*b] = 1
		for rr := c + 1; rr < b; rr++ {
			y0[rr+c*b] = y[rr+c*m]
		}
	}
	blas.Dtrsm(blas.Right, blas.Lower, true, blas.Unit, b, b, -1, y0, b, tm, b)
	// Check Q1 == [I;0] - Y T Y0^T.
	yt := make([]float64, m*b)
	blas.Dgemm(false, false, m, b, b, 1, y, m, tm, b, 0, yt, m)
	rec := make([]float64, m*b)
	blas.Dgemm(false, true, m, b, b, -1, yt, m, y0, b, 0, rec, m)
	for i := 0; i < b; i++ {
		rec[i+i*m] += 1
	}
	for i := range rec {
		if math.Abs(rec[i]-q1[i]) > 1e-10 {
			t.Fatalf("reconstruction mismatch at %d: %g vs %g", i, rec[i], q1[i])
		}
	}
}

func TestSelectiveExecutionCompletes(t *testing.T) {
	cfg := Config{M: 64, N: 32, B: 4, PR: 2, PC: 2, Panel: PanelTSQR}
	runGrid(t, 2, 2, 0.4, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewMatrix(g, cfg)
		a.FillGeneral(9)
		QR(p, a, cfg)
		rep := p.Report()
		if g.All.Rank() == 0 && rep.Skipped == 0 {
			t.Error("no kernels skipped at loose tolerance")
		}
	})
}

func TestManyDistinctKernelSignatures(t *testing.T) {
	// CANDMC's shrinking trailing matrix produces many distinct kernel
	// signatures (the property that limits its tuning speedup, Fig. 5a).
	cfg := Config{M: 64, N: 32, B: 4, PR: 2, PC: 2, Panel: PanelTSQR}
	runGrid(t, 2, 2, 0, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewMatrix(g, cfg)
		a.FillGeneral(9)
		QR(p, a, cfg)
		if g.All.Rank() == 0 && p.KernelCount() < 12 {
			t.Errorf("expected a rich kernel population, got %d", p.KernelCount())
		}
	})
}

func TestMatrixGatherRoundTrip(t *testing.T) {
	cfg := Config{M: 32, N: 16, B: 4, PR: 2, PC: 2}
	runGrid(t, 2, 2, 0, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewMatrix(g, cfg)
		a.FillGeneral(4)
		full := a.GatherDense(0)
		if g.All.Rank() != 0 {
			return
		}
		for j := 0; j < cfg.N; j++ {
			for i := 0; i < cfg.M; i++ {
				if want := Entry(i, j, 4); full[i+j*cfg.M] != want {
					t.Fatalf("gathered (%d,%d) = %g, want %g", i, j, full[i+j*cfg.M], want)
				}
			}
		}
	})
}
