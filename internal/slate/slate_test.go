package slate

import (
	"math"
	"slices"
	"testing"

	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
	"critter/internal/sim"
)

func runGrid(t *testing.T, pr, pc int, eps float64, policy critter.Policy,
	body func(p *critter.Profiler, g *grid.Grid2D)) {
	t.Helper()
	m := sim.DefaultMachine()
	w := mpi.NewWorld(pr*pc, m, 11)
	if err := w.Run(func(c *mpi.Comm) {
		p, cc := critter.New(c, critter.Options{Policy: policy, Eps: eps})
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

func TestCholConfigValidate(t *testing.T) {
	ok := CholConfig{N: 64, NB: 8, PR: 2, PC: 2}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []CholConfig{
		{N: 65, NB: 8, PR: 2, PC: 2},
		{N: 64, NB: 8, PR: 2, PC: 3},
		{N: 64, NB: 8, PR: 2, PC: 2, Lookahead: 2},
	}
	for i, c := range bad {
		if c.Validate(4) == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func testCholeskyResidual(t *testing.T, pr, pc, n, nb, la int) {
	cfg := CholConfig{N: n, NB: nb, Lookahead: la, PR: pr, PC: pc}
	if err := cfg.Validate(pr * pc); err != nil {
		t.Fatal(err)
	}
	runGrid(t, pr, pc, 0, critter.Conditional, func(p *critter.Profiler, g *grid.Grid2D) {
		nt := n / nb
		a := NewTileMatrix(g, nt, nt, nb)
		a.FillSymmetricPD()
		ref := a.GatherDense(0)
		Cholesky(p, a, cfg)
		l := a.GatherDense(0)
		if g.All.Rank() != 0 {
			return
		}
		// Zero above-diagonal, rebuild A, compare.
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				l[i+j*n] = 0
				ref[i+j*n] = ref[j+i*n] // mirror lower reference for comparison
			}
		}
		llt := make([]float64, n*n)
		blas.Dgemm(false, true, n, n, n, 1, l, n, l, n, 0, llt, n)
		diff := make([]float64, n*n)
		for i := range diff {
			diff[i] = llt[i] - ref[i]
		}
		if rel := frob(diff) / frob(ref); rel > 1e-10 {
			t.Errorf("grid %dx%d n=%d nb=%d la=%d: ||A-LL^T||/||A|| = %g", pr, pc, n, nb, la, rel)
		}
	})
}

func TestCholeskyResidual2x2(t *testing.T)       { testCholeskyResidual(t, 2, 2, 48, 8, 0) }
func TestCholeskyResidualLookahead(t *testing.T) { testCholeskyResidual(t, 2, 2, 48, 8, 1) }
func TestCholeskyResidual1x4(t *testing.T)       { testCholeskyResidual(t, 1, 4, 32, 8, 0) }
func TestCholeskyResidual4x1(t *testing.T)       { testCholeskyResidual(t, 4, 1, 32, 8, 1) }
func TestCholeskyResidual2x3(t *testing.T)       { testCholeskyResidual(t, 2, 3, 36, 6, 0) }

func TestCholeskyLookaheadSameFactor(t *testing.T) {
	// Lookahead reorders operations but must produce the same factor.
	n, nb := 32, 8
	var l0, l1 []float64
	for _, la := range []int{0, 1} {
		cfg := CholConfig{N: n, NB: nb, Lookahead: la, PR: 2, PC: 2}
		runGrid(t, 2, 2, 0, critter.Conditional, func(p *critter.Profiler, g *grid.Grid2D) {
			a := NewTileMatrix(g, n/nb, n/nb, nb)
			a.FillSymmetricPD()
			Cholesky(p, a, cfg)
			got := a.GatherDense(0)
			if g.All.Rank() == 0 {
				if la == 0 {
					l0 = got
				} else {
					l1 = got
				}
			}
		})
	}
	for i := range l0 {
		if math.Abs(l0[i]-l1[i]) > 1e-11 {
			t.Fatalf("lookahead changed the factor at %d: %g vs %g", i, l0[i], l1[i])
		}
	}
}

func TestCholeskySelectiveExecutionRuns(t *testing.T) {
	// Under selective execution numerics are garbage, but the schedule
	// must complete without hangs and skip a nontrivial number of kernels.
	cfg := CholConfig{N: 64, NB: 8, Lookahead: 0, PR: 2, PC: 2}
	runGrid(t, 2, 2, 0.4, critter.Online, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewTileMatrix(g, 8, 8, 8)
		a.FillSymmetricPD()
		Cholesky(p, a, cfg)
		rep := p.Report()
		if g.All.Rank() == 0 && rep.Skipped == 0 {
			t.Error("no kernels skipped at loose tolerance")
		}
	})
}

func testQRGram(t *testing.T, pr, pc, m, n, nb, ib int) {
	cfg := QRConfig{M: m, N: n, NB: nb, IB: ib, PR: pr, PC: pc}
	if err := cfg.Validate(pr * pc); err != nil {
		t.Fatal(err)
	}
	runGrid(t, pr, pc, 0, critter.Conditional, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewTileMatrix(g, m/nb, n/nb, nb)
		a.FillGeneral(5)
		orig := a.GatherDense(0)
		QR(p, a, cfg)
		r := a.GatherDense(0)
		if g.All.Rank() != 0 {
			return
		}
		// R is the upper triangle; A^T A must equal R^T R.
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
		if rel := frob(diff) / frob(ata); rel > 1e-10 {
			t.Errorf("grid %dx%d %dx%d nb=%d ib=%d: ||A^TA - R^TR||/||A^TA|| = %g",
				pr, pc, m, n, nb, ib, rel)
		}
	})
}

func TestQRGram2x2(t *testing.T)         { testQRGram(t, 2, 2, 64, 32, 8, 4) }
func TestQRGramInnerBlock1(t *testing.T) { testQRGram(t, 2, 2, 48, 16, 8, 8) }
func TestQRGram4x1(t *testing.T)         { testQRGram(t, 4, 1, 64, 16, 8, 2) }
func TestQRGram1x4(t *testing.T)         { testQRGram(t, 1, 4, 32, 32, 8, 4) }

func TestQRSquare(t *testing.T) { testQRGram(t, 2, 2, 32, 32, 8, 4) }

func TestQRConfigValidate(t *testing.T) {
	if (QRConfig{M: 32, N: 64, NB: 8, IB: 4, PR: 2, PC: 2}).Validate(4) == nil {
		t.Error("M < N accepted")
	}
	if (QRConfig{M: 64, N: 32, NB: 8, IB: 16, PR: 2, PC: 2}).Validate(4) == nil {
		t.Error("IB > NB accepted")
	}
}

// TestRaggedTileIndex: on a 3x2 grid holding 7x5 tiles, where neither tile
// count divides by its grid dimension, each rank indexes ⌈7/3⌉·⌈5/2⌉ slots
// whatever it owns, the gathered matrix is the generator's entry for entry,
// Release hands back every tile the rank allocated, and a tile the rank
// does not own still panics.
func TestRaggedTileIndex(t *testing.T) {
	const pr, pc, mt, nt, nb = 3, 2, 7, 5, 4
	const seed = 9
	runGrid(t, pr, pc, 0, critter.Conditional, func(p *critter.Profiler, g *grid.Grid2D) {
		me := g.All.Rank()
		a := NewTileMatrix(g, mt, nt, nb)
		if want := 3 * 3; len(a.tiles) != want {
			t.Errorf("rank %d: index holds %d slots, want %d", me, len(a.tiles), want)
		}
		// A private pool per rank, so what Release returns is this rank's alone.
		a.pool = mpi.NewBufPool()
		a.FillGeneral(seed)
		owned := map[*float64]bool{}
		for i := 0; i < mt; i++ {
			for j := 0; j < nt; j++ {
				if a.Mine(i, j) {
					owned[&a.Tile(i, j)[0]] = true
				}
			}
		}
		rows, cols := (mt-g.MyRow+pr-1)/pr, (nt-g.MyCol+pc-1)/pc
		if len(owned) != rows*cols {
			t.Errorf("rank %d: owns %d distinct tiles, want %d", me, len(owned), rows*cols)
		}

		full := a.GatherDense(0)
		if me == 0 {
			m, bad := mt*nb, 0
			for j := 0; j < nt*nb; j++ {
				for i := 0; i < m; i++ {
					if got, want := full[i+j*m], generalEntry(i, j, seed); got != want {
						bad++
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d gathered entries differ from the generator", bad, len(full))
			}
		}

		a.Release()
		for ix, tl := range a.tiles {
			if tl != nil {
				t.Errorf("rank %d: slot %d still holds a tile after Release", me, ix)
			}
		}
		for n := len(owned); n > 0; n-- {
			b := a.pool.Get(nb * nb)
			if !owned[&b[0]] {
				t.Errorf("rank %d: pool handed back a buffer that was not one of its tiles", me)
				break
			}
			delete(owned, &b[0])
		}

		// The first tile of the next grid row and column is someone else's.
		i, j := (g.MyRow+1)%pr, (g.MyCol+1)%pc
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: Tile(%d,%d) of rank %d did not panic", me, i, j, a.Owner(i, j))
				}
			}()
			a.Tile(i, j)
		}()
	})
}

func TestTileMatrixOwnership(t *testing.T) {
	runGrid(t, 2, 2, 0, critter.Conditional, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewTileMatrix(g, 4, 4, 8)
		owners := map[int]bool{}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				owners[a.Owner(i, j)] = true
				if a.Owner(i, j) != g.RankOf(i%2, j%2) {
					t.Errorf("tile (%d,%d) owner %d", i, j, a.Owner(i, j))
				}
			}
		}
		if len(owners) != 4 {
			t.Errorf("expected 4 distinct owners, got %d", len(owners))
		}
	})
}

// TestOwnersEnumeratedMatchScan holds the enumerations the factorizations
// loop over — a rank's local tiles down a column or along a row from any
// start, the owners of a row or column range, and QR's chain of owners
// stepped down a column (ownerBelow) — to a scan of Mine and Owner over
// every tile of the range, on a 3x2 grid with 7x5 tiles.
func TestOwnersEnumeratedMatchScan(t *testing.T) {
	const pr, pc, mt, nt = 3, 2, 7, 5
	runGrid(t, pr, pc, 0, critter.Conditional, func(p *critter.Profiler, g *grid.Grid2D) {
		a := NewTileMatrix(g, mt, nt, 2)
		me := g.All.Rank()
		equal := func(x, y []bool) bool {
			for r := range x {
				if x[r] != y[r] {
					return false
				}
			}
			return true
		}
		for j := range nt {
			for i0 := range mt + 1 {
				var got, want []int
				for i := a.mineInCol(j, i0); i < mt; i += pr {
					got = append(got, i)
				}
				for i := i0; i < mt; i++ {
					if a.Mine(i, j) {
						want = append(want, i)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("rank %d: local rows of column %d from %d are %v, want %v", me, j, i0, got, want)
				}
				o := a.Owner(i0, j)
				for i := i0; i < mt; i, o = i+1, a.ownerBelow(o) {
					if o != a.Owner(i, j) {
						t.Errorf("rank %d: chain down column %d from %d steps to owner %d at row %d, want %d", me, j, i0, o, i, a.Owner(i, j))
					}
				}
				for i1 := i0; i1 <= mt; i1++ {
					got, want := make([]bool, pr*pc), make([]bool, pr*pc)
					a.markCol(got, j, i0, i1)
					for i := i0; i < i1; i++ {
						want[a.Owner(i, j)] = true
					}
					if !equal(got, want) {
						t.Errorf("rank %d: owners of column %d rows [%d, %d) are %v, want %v", me, j, i0, i1, got, want)
					}
				}
			}
		}
		for i := range mt {
			for j0 := range nt + 1 {
				var got, want []int
				for j := a.mineInRow(i, j0); j < nt; j += pc {
					got = append(got, j)
				}
				for j := j0; j < nt; j++ {
					if a.Mine(i, j) {
						want = append(want, j)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("rank %d: local columns of row %d from %d are %v, want %v", me, i, j0, got, want)
				}
				for j1 := j0; j1 <= nt; j1++ {
					got, want := make([]bool, pr*pc), make([]bool, pr*pc)
					a.markRow(got, i, j0, j1)
					for j := j0; j < j1; j++ {
						want[a.Owner(i, j)] = true
					}
					if !equal(got, want) {
						t.Errorf("rank %d: owners of row %d columns [%d, %d) are %v, want %v", me, i, j0, j1, got, want)
					}
				}
			}
		}
	})
}

// TestCostOnlyTileMatrixHoldsNoTiles builds a matrix on a clock's world,
// which is cost-only: it keeps no tile index, the fills write nothing, every
// local tile is a view of the world's scratch, and a tile the rank does not
// own still panics.
func TestCostOnlyTileMatrixHoldsNoTiles(t *testing.T) {
	const pr, pc, mt, nt, nb = 3, 2, 7, 5, 4
	w := mpi.NewWorld(pr*pc, sim.DefaultMachine(), 11)
	if err := w.Run(func(c *mpi.Comm) {
		_, cc := critter.NewClock(c, critter.Options{Policy: critter.Conditional})
		g := grid.New2D(cc, pr, pc)
		me := g.All.Rank()
		a := NewTileMatrix(g, mt, nt, nb)
		if a.tiles != nil {
			t.Errorf("rank %d: a cost-only matrix holds a %d-slot index", me, len(a.tiles))
		}
		scratch := c.Workspace().Get(nb * nb)
		for k := range scratch {
			scratch[k] = -1
		}
		a.FillGeneral(3)
		a.FillSymmetricPD()
		for i := g.MyRow; i < mt; i += pr {
			for j := g.MyCol; j < nt; j += pc {
				tl := a.Tile(i, j)
				if len(tl) != nb*nb || &tl[0] != &scratch[0] {
					t.Errorf("rank %d: tile (%d,%d) is not a view of the world's scratch", me, i, j)
				}
				if tl[0] != -1 {
					t.Errorf("rank %d: a fill wrote %v into the scratch", me, tl[0])
				}
			}
		}
		a.Release()
		i, j := (g.MyRow+1)%pr, (g.MyCol+1)%pc
		defer func() {
			if recover() == nil {
				t.Errorf("rank %d: Tile(%d,%d) of rank %d did not panic", me, i, j, a.Owner(i, j))
			}
		}()
		a.Tile(i, j)
	}); err != nil {
		t.Fatal(err)
	}
}
