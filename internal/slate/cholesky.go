package slate

import (
	"fmt"

	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/mpi"
)

// CholConfig parameterizes SLATE's tiled Cholesky (potrf): matrix dimension
// N, tile size NB, lookahead depth (0 or 1), and the process grid shape.
// These are the tuning dimensions of the paper's second case study
// (Section V-C: pipeline depth v%2, tile size 256+64*floor(v/2)).
type CholConfig struct {
	N         int
	NB        int
	Lookahead int
	PR, PC    int
}

// Validate checks the configuration against the communicator size.
func (c CholConfig) Validate(worldSize int) error {
	if c.N%c.NB != 0 {
		return fmt.Errorf("slate: N=%d not divisible by NB=%d", c.N, c.NB)
	}
	if c.PR*c.PC != worldSize {
		return fmt.Errorf("slate: grid %dx%d != world %d", c.PR, c.PC, worldSize)
	}
	if c.Lookahead < 0 || c.Lookahead > 1 {
		return fmt.Errorf("slate: lookahead %d not in {0,1}", c.Lookahead)
	}
	return nil
}

// Cholesky runs the tiled right-looking Cholesky factorization with
// lookahead pipelining. The lower tiles of a are overwritten by L. All
// kernels (potrf, trsm, syrk, gemm) and all tile communication (isend/recv)
// run through the profiler.
func Cholesky(p *critter.Profiler, a *TileMatrix, cfg CholConfig) {
	nt := a.NT
	nb := a.NB
	cc := a.G.All
	me := cc.Rank()

	// need marks the recipients of one tile broadcast (see tileBcast). The
	// panel ring holds the factored column-k tiles this rank uses:
	// panelOf(k)[i] is L(i,k) for every locally needed i, nil elsewhere. At
	// most lookahead+1 <= 2 panels are live, so two slots of nt tiles serve
	// the whole run. Both are the rank's slate bookkeeping (local), which
	// outlives the run. A received tile is a buffer of the world's pool, or
	// on a cost-only world a view of the world's scratch. Retiring a panel
	// clears its slot and, on a data world, gives back to the pool every
	// tile of it this rank does not own: those are the received ones.
	st := mpi.Local[local](cc.Raw())
	st.need = resized(st.need, cc.Size())
	st.ring = resized(st.ring, 2*nt)
	need, ring := st.need, st.ring
	panelOf := func(k int) [][]float64 { return ring[k%2*nt : (k%2+1)*nt] }
	bufs := cc.Raw().World().BufPoolOf()
	costOnly := cc.Raw().World().CostOnly()
	recvBuf := bufs.Get
	if costOnly {
		recvBuf = cc.Raw().Workspace().Get
	}
	retirePanel := func(k int) {
		cache := panelOf(k)
		if !costOnly {
			for i := k; i < nt; i++ {
				if cache[i] != nil && a.Owner(i, k) != me {
					bufs.Put(cache[i])
				}
			}
		}
		clear(cache)
	}

	// panel factors tile column k: potrf on the diagonal tile, trsm below,
	// then broadcasts each L(i,k) to the ranks that will consume it.
	panel := func(k int) {
		cache := panelOf(k)
		diagOwner := a.Owner(k, k)
		if me == diagOwner {
			lkk := a.Tile(k, k)
			if err := p.Potrf(nb, lkk, nb); err != nil {
				_ = err // tolerated during selective execution (garbage inputs)
			}
		}
		// L(k,k) goes to owners of tiles (i,k), i>k (the trsm workers).
		clear(need)
		a.markCol(need, k, k+1, nt)
		need[diagOwner] = false
		cache[k] = tileBcast(cc, diagOwner, need, tag(k, k, 0, nt), tileOrNil(a, k, k, me == diagOwner), nb*nb, recvBuf)
		// trsm: L(i,k) = A(i,k) * L(k,k)^-T for local tiles below.
		for i := a.mineInCol(k, k+1); i < nt; i += a.G.PR {
			p.Trsm(blas.Right, blas.Lower, true, blas.NonUnit, nb, nb, 1, cache[k], nb, a.Tile(i, k), nb)
		}
		// Broadcast each L(i,k) to the ranks holding trailing tiles that
		// consume it: row i holders (left operand) and column i holders
		// (transposed right operand).
		for i := k + 1; i < nt; i++ {
			owner := a.Owner(i, k)
			clear(need)
			a.markRow(need, i, k+1, i+1)
			a.markCol(need, i, i, nt)
			need[owner] = false
			cache[i] = tileBcast(cc, owner, need, tag(k, i, 1, nt), tileOrNil(a, i, k, me == owner), nb*nb, recvBuf)
		}
	}

	// updateColumn applies panel k's update to tile column j of the
	// trailing matrix: A(i,j) -= L(i,k) L(j,k)^T (syrk on the diagonal).
	updateColumn := func(j, k int) {
		cache := panelOf(k)
		for i := a.mineInCol(j, j); i < nt; i += a.G.PR {
			lik, ljk := cache[i], cache[j]
			if lik == nil || ljk == nil {
				panic(fmt.Sprintf("slate: rank %d missing panel tiles for update (%d,%d) from panel %d", me, i, j, k))
			}
			if i == j {
				p.Syrk(blas.Lower, false, nb, nb, -1, ljk, nb, 1, a.Tile(j, j), nb)
			} else {
				p.Gemm(false, true, nb, nb, nb, -1, lik, nb, ljk, nb, 1, a.Tile(i, j), nb)
			}
		}
	}

	if nt > 0 {
		panel(0)
	}
	for k := 0; k < nt; k++ {
		if k+1 < nt {
			// Lookahead column: complete the next panel's column first.
			updateColumn(k+1, k)
			if cfg.Lookahead >= 1 {
				// Pipelined: factor the next panel before the bulk update,
				// so its tiles are in flight during the trailing update.
				panel(k + 1)
			}
		}
		for j := k + 2; j < nt; j++ {
			updateColumn(j, k)
		}
		if cfg.Lookahead == 0 && k+1 < nt {
			panel(k + 1)
		}
		retirePanel(k)
		p.Waitall()
	}
}

func tileOrNil(a *TileMatrix, i, j int, mine bool) []float64 {
	if mine {
		return a.Tile(i, j)
	}
	return nil
}

// tag builds a unique message tag for panel k, tile row i, and phase.
func tag(k, i, phase, nt int) int { return (k*nt+i)*8 + phase }
