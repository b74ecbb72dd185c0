package slate

import (
	"fmt"

	"critter/internal/critter"
	"critter/internal/mpi"
)

// QRConfig parameterizes SLATE's tiled Householder QR (geqrf): matrix shape
// M x N, tile size NB, inner blocking IB (the paper's "smaller panel width"
// w), and the process grid. These are the tuning dimensions of the paper's
// fourth case study (Section V-C: w = 8*2^(v%3), panel width
// 256+64*floor(v/3)%7, grid 64/2^floor(v/21) x 4*2^floor(v/21)).
type QRConfig struct {
	M, N   int
	NB     int
	IB     int
	PR, PC int
}

// Validate checks the configuration against the communicator size.
func (c QRConfig) Validate(worldSize int) error {
	switch {
	case c.M%c.NB != 0 || c.N%c.NB != 0:
		return fmt.Errorf("slate: dims %dx%d not divisible by NB=%d", c.M, c.N, c.NB)
	case c.M < c.N:
		return fmt.Errorf("slate: QR requires M >= N (%d < %d)", c.M, c.N)
	case c.IB < 1 || c.IB > c.NB:
		return fmt.Errorf("slate: IB=%d outside [1, NB=%d]", c.IB, c.NB)
	case c.PR*c.PC != worldSize:
		return fmt.Errorf("slate: grid %dx%d != world %d", c.PR, c.PC, worldSize)
	}
	return nil
}

// QR runs the tiled Householder QR factorization: geqrt on diagonal tiles,
// tpqrt chains down each tile column, and gemqrt/tpmqrt updates across the
// trailing tiles, communicating tiles with profiled isend/recv. On return,
// tile rows k hold the R factor in tiles (k, j), j >= k; the lower tiles
// hold the Householder reflectors. The buffers that live for one k iteration
// — the migrating R and top tiles, the T factors, the [V|T] send copies and
// the received tiles — come off the rank's workspace and are popped at the
// end of the iteration (messages capture their payload when posted, and the
// iteration's Waitall completes every Isend it posted first, so by then
// nothing in flight refers to them).
func QR(p *critter.Profiler, a *TileMatrix, cfg QRConfig) {
	mt, nt, nb, ib := a.MT, a.NT, a.NB, cfg.IB
	cc := a.G.All
	me := cc.Rank()
	// need marks one tile broadcast's recipients (see tileBcast); pairs[i]
	// holds {V(i,k), T(i,k)} of the current tile column where this rank
	// needs them. Both come from the rank's slate bookkeeping (local).
	st := mpi.Local[local](cc.Raw())
	st.need = resized(st.need, cc.Size())
	st.pairs = resized(st.pairs, mt)
	need, pairs := st.need, st.pairs
	ws := cc.Raw().Workspace()
	recvBuf := ws.Get       // zeroed: a skipped Recv leaves the buffer as handed out
	vWords := nb*nb + ib*nb // a V tile with its stacked T factor
	// stack returns [v|t] as one buffer, the unit tileBcast moves.
	stack := func(v, t []float64) []float64 {
		vt := ws.Get(vWords)
		copy(vt, v)
		copy(vt[len(v):], t)
		return vt
	}

	tagOf := func(k, i, j, phase int) int {
		return ((k*mt+i)*(nt+1)+j)*8 + phase
	}

	for k := 0; k < nt; k++ {
		iter := ws.Mark()
		diagOwner := a.Owner(k, k)

		// Factor the diagonal tile and broadcast [V|T] along tile row k.
		var vkk, tkk []float64
		if me == diagOwner {
			vkk = a.Tile(k, k)
			tkk = ws.Get(ib * nb)
			tau := ws.Get(nb)
			p.Geqrt(nb, nb, ib, vkk, nb, tkk, ib, tau)
		}
		clear(need)
		a.markRow(need, k, k+1, nt)
		need[diagOwner] = false
		var send []float64
		if me == diagOwner {
			send = stack(vkk, tkk)
		}
		if got := tileBcast(cc, diagOwner, need, tagOf(k, k, 0, 0), send, vWords, recvBuf); got != nil && me != diagOwner {
			vkk, tkk = got[:nb*nb], got[nb*nb:]
		}
		// Apply Q_kk^T to the rest of tile row k.
		for j := a.mineInRow(k, k+1); j < nt; j += a.G.PC {
			p.Gemqrt(true, nb, nb, nb, ib, vkk, nb, tkk, ib, a.Tile(k, j), nb)
		}

		// tpqrt chain down tile column k. The running R starts as the
		// upper triangle of the factored diagonal tile and migrates from
		// owner to owner; each step leaves V(i,k)/T(i,k) at the owner of
		// tile (i,k) and broadcasts them along tile row i.
		var r []float64
		if me == diagOwner {
			r = ws.Get(nb * nb)
			for c := 0; c < nb; c++ {
				for rr := 0; rr <= c; rr++ {
					r[rr+c*nb] = vkk[rr+c*nb]
				}
			}
		}
		cur := diagOwner
		clear(pairs)
		for i := k + 1; i < mt; i++ {
			o := a.Owner(i, k)
			if o != cur {
				if me == cur {
					cc.Isend(o, tagOf(k, i, 0, 1), r)
				} else if me == o {
					r = ws.Get(nb * nb)
					cc.Recv(cur, tagOf(k, i, 0, 1), r)
				}
			}
			var vik, tik []float64
			if me == o {
				vik = a.Tile(i, k)
				tik = ws.Get(ib * nb)
				p.Tpqrt(nb, nb, ib, r, nb, vik, nb, tik, ib)
			}
			clear(need)
			a.markRow(need, i, k+1, nt)
			need[o] = false
			var vsend []float64
			if me == o {
				vsend = stack(vik, tik)
			}
			if got := tileBcast(cc, o, need, tagOf(k, i, 0, 3), vsend, vWords, recvBuf); got != nil {
				pairs[i] = [2][]float64{got[:nb*nb], got[nb*nb:]}
			} else if me == o {
				pairs[i] = [2][]float64{vik, tik}
			}
			cur = o
		}
		// Return the fully reduced R to the diagonal tile.
		if cur != diagOwner {
			if me == cur {
				cc.Isend(diagOwner, tagOf(k, k, 0, 2), r)
			} else if me == diagOwner {
				cc.Recv(cur, tagOf(k, k, 0, 2), r)
			}
		}
		if me == diagOwner {
			for c := 0; c < nb; c++ {
				for rr := 0; rr <= c; rr++ {
					vkk[rr+c*nb] = r[rr+c*nb]
				}
			}
		}

		// Pair updates: for every trailing column j the top tile (k,j)
		// migrates down the chain, combined with each local tile (i,j).
		for j := k + 1; j < nt; j++ {
			topOwner := a.Owner(k, j)
			var top []float64
			if me == topOwner {
				top = a.Tile(k, j)
			}
			cur := topOwner
			// The chain's owners step down the process rows of column j.
			o := a.Owner(k+1, j)
			for i := k + 1; i < mt; i, o = i+1, a.ownerBelow(o) {
				if o != cur {
					if me == cur {
						cc.Isend(o, tagOf(k, i, j, 4), top)
					} else if me == o {
						top = ws.Get(nb * nb)
						cc.Recv(cur, tagOf(k, i, j, 4), top)
					}
				}
				if me == o {
					pair := pairs[i]
					if pair[0] == nil {
						panic(fmt.Sprintf("slate: rank %d missing V(%d,%d) for update of (%d,%d)", me, i, k, i, j))
					}
					p.Tpmqrt(true, nb, nb, nb, ib, pair[0], nb, pair[1], ib, top, nb, a.Tile(i, j), nb)
				}
				cur = o
			}
			if cur != topOwner {
				if me == cur {
					cc.Isend(topOwner, tagOf(k, k, j, 5), top)
				} else if me == topOwner {
					top = ws.Get(nb * nb)
					cc.Recv(cur, tagOf(k, k, j, 5), top)
				}
			}
			if me == topOwner {
				// The chain may have migrated the top tile into a fresh
				// buffer even when it ended here; write it back.
				copy(a.Tile(k, j), top)
			}
		}
		p.Waitall()
		ws.Release(iter)
	}
}
