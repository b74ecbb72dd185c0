// Package slate implements task-style tiled dense factorizations on 2D
// block-cyclic process grids, modeled on SLATE's potrf and geqrf routines
// (Gates et al.), the second and fourth case studies of the paper. Tiles of
// a tunable size are distributed round-robin over a pr-by-pc grid; tile
// dependencies are satisfied with nonblocking point-to-point communication
// (isend/recv), matching the kernel population the paper reports for SLATE.
package slate

import (
	"fmt"
	"math"

	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
)

// TileMatrix stores the locally owned nb-by-nb tiles of an (mt*nb)x(nt*nb)
// matrix distributed block-cyclically: tile (I, J) lives on grid rank
// (I mod pr, J mod pc). Tiles are column-major.
//
// On a cost-only world (mpi.World.MarkCostOnly: a clock profiler's, whose
// kernels read no number) the matrix holds no numbers: it allocates no
// tile, Tile returns a view of the world's scratch (mpi.Workspace.Get), and
// the fills do nothing. Ownership, and so every rank's control flow and send
// order, is the same as on any other world.
type TileMatrix struct {
	G      *grid.Grid2D
	NB     int
	MT, NT int
	// tiles holds the calling rank's own tiles (nil = not yet allocated):
	// tile (I, J) sits in slot (I/pr)*lnt + J/pc, lnt = ⌈NT/pc⌉, so the index
	// is sized by what the rank owns, ⌈MT/pr⌉·⌈NT/pc⌉ slots, not by the
	// global MT·NT. A dense slice, not a map: tile lookups sit in the
	// factorizations' innermost loops. Slot order is the owned tiles'
	// row-major global order, so Release hands them back in that order.
	// The index itself is nil on a cost-only world, and only there.
	//
	// pool, the world's buffer pool, supplies tile storage. Pooled tiles have
	// unspecified initial contents, which is sound because every tile the
	// factorizations touch is fully overwritten by a Fill* call before its
	// first read; Release returns the storage when the matrix is done.
	// Message payloads are captured at issue time (mpi.Isend), so no
	// in-flight message ever aliases tile storage.
	tiles [][]float64
	lnt   int
	pool  *mpi.BufPool
}

// NewTileMatrix creates an empty tile matrix of mt-by-nt tiles. Tile
// storage draws from the world's buffer pool; call Release when the matrix
// (and any aliases of its tiles) is dead.
func NewTileMatrix(g *grid.Grid2D, mt, nt, nb int) *TileMatrix {
	w := g.All.Raw().World()
	t := &TileMatrix{G: g, NB: nb, MT: mt, NT: nt, lnt: (nt + g.PC - 1) / g.PC, pool: w.BufPoolOf()}
	if !w.CostOnly() {
		t.tiles = make([][]float64, (mt+g.PR-1)/g.PR*t.lnt)
	}
	return t
}

// slot returns the index of owned tile (i, j) in t.tiles.
func (t *TileMatrix) slot(i, j int) int { return (i/t.G.PR)*t.lnt + j/t.G.PC }

// stored returns owned tile (i, j)'s storage, nil if it has none.
func (t *TileMatrix) stored(i, j int) []float64 {
	if t.tiles == nil {
		return nil
	}
	return t.tiles[t.slot(i, j)]
}

// Release recycles every tile's storage back to the buffer pool and empties
// the matrix. The caller asserts no live references to any tile remain.
func (t *TileMatrix) Release() {
	for ix, tl := range t.tiles {
		if tl != nil {
			t.pool.Put(tl)
			t.tiles[ix] = nil
		}
	}
}

// Owner returns the grid rank owning tile (i, j).
func (t *TileMatrix) Owner(i, j int) int {
	return t.G.RankOf(i%t.G.PR, j%t.G.PC)
}

// ownerBelow returns the owner of tile (i+1, j), given o, the owner of tile
// (i, j): the next process row's rank in the same process column, the first
// row's after the last. A walk down a tile column steps with it instead of
// dividing for every tile.
func (t *TileMatrix) ownerBelow(o int) int {
	if o += t.G.PC; o >= t.G.PR*t.G.PC {
		o -= t.G.PR * t.G.PC
	}
	return o
}

// Mine reports whether the calling rank owns tile (i, j).
func (t *TileMatrix) Mine(i, j int) bool { return i%t.G.PR == t.G.MyRow && j%t.G.PC == t.G.MyCol }

// firstMine returns the first index at or after i0 that is congruent to
// mine modulo p: the first tile row (or column) of a range that the calling
// rank's grid row (or column) holds; the next ones follow every p.
func firstMine(i0, mine, p int) int { return i0 + ((mine-i0)%p+p)%p }

// mineInCol returns the first tile row i >= i0 with tile (i, j) local, the
// rest following every PR rows; it is MaxInt when the calling rank owns no
// tile of column j.
func (t *TileMatrix) mineInCol(j, i0 int) int {
	if j%t.G.PC != t.G.MyCol {
		return math.MaxInt
	}
	return firstMine(i0, t.G.MyRow, t.G.PR)
}

// mineInRow is mineInCol along tile row i: the first local column j >= j0,
// the rest following every PC columns.
func (t *TileMatrix) mineInRow(i, j0 int) int {
	if i%t.G.PR != t.G.MyRow {
		return math.MaxInt
	}
	return firstMine(j0, t.G.MyCol, t.G.PC)
}

// markRow marks in need the owners of tiles (i, j), j in [j0, j1): the grid
// row i mod PR spans at most PC of them, one per process column, so PC
// consecutive columns name them all.
func (t *TileMatrix) markRow(need []bool, i, j0, j1 int) {
	row, c := t.Owner(i, 0), j0%t.G.PC
	for range min(j1-j0, t.G.PC) {
		need[row+c] = true
		if c++; c == t.G.PC {
			c = 0
		}
	}
}

// markCol marks in need the owners of tiles (i, j), i in [i0, i1), at most
// PR of them, one per process row.
func (t *TileMatrix) markCol(need []bool, j, i0, i1 int) {
	r, c := i0%t.G.PR, j%t.G.PC
	for range min(i1-i0, t.G.PR) {
		need[t.G.RankOf(r, c)] = true
		if r++; r == t.G.PR {
			r = 0
		}
	}
}

// Tile returns (allocating if needed) the local tile (i, j); it panics if
// the tile is not local. On a cost-only world it returns a view of the
// world's scratch.
func (t *TileMatrix) Tile(i, j int) []float64 {
	if !t.Mine(i, j) {
		panic(fmt.Sprintf("slate: tile (%d,%d) not owned by rank %d", i, j, t.G.All.Rank()))
	}
	if t.tiles == nil {
		return t.G.All.Raw().Workspace().Get(t.NB * t.NB)
	}
	ix := t.slot(i, j)
	tl := t.tiles[ix]
	if tl == nil {
		tl = t.pool.Get(t.NB * t.NB)
		t.tiles[ix] = tl
	}
	return tl
}

// FillSymmetricPD fills the lower tiles (i >= j) with the deterministic
// symmetric positive definite test matrix
// A[i][j] = 1/(1+|i-j|) + boost*delta_ij, which is strictly diagonally
// dominant and locally computable on every rank. It does nothing on a
// cost-only world.
func (t *TileMatrix) FillSymmetricPD() {
	if t.tiles == nil {
		return
	}
	n := t.NT * t.NB
	boost := 4 + 2*math.Log(float64(n))
	for i := 0; i < t.MT; i++ {
		for j := 0; j <= i && j < t.NT; j++ {
			if !t.Mine(i, j) {
				continue
			}
			tl := t.Tile(i, j)
			for c := 0; c < t.NB; c++ {
				for r := 0; r < t.NB; r++ {
					gi, gj := i*t.NB+r, j*t.NB+c
					tl[r+c*t.NB] = grid.SPDEntry(gi, gj, boost)
				}
			}
		}
	}
}

// FillGeneral fills all local tiles with a deterministic dense test matrix.
// It does nothing on a cost-only world.
func (t *TileMatrix) FillGeneral(seed uint64) {
	if t.tiles == nil {
		return
	}
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			if !t.Mine(i, j) {
				continue
			}
			tl := t.Tile(i, j)
			for c := 0; c < t.NB; c++ {
				for r := 0; r < t.NB; r++ {
					gi, gj := i*t.NB+r, j*t.NB+c
					tl[r+c*t.NB] = grid.GeneralEntry(gi, gj, seed)
				}
			}
		}
	}
}

// GatherDense assembles the full matrix on grid rank root using the raw
// (unprofiled) communicator, zero-filling tiles that were never written.
// Verification traffic must not enter the kernel profiles.
func (t *TileMatrix) GatherDense(root int) []float64 {
	raw := t.G.All.Raw()
	me := raw.Rank()
	m, n := t.MT*t.NB, t.NT*t.NB
	var full []float64
	if me == root {
		full = make([]float64, m*n)
	}
	buf := make([]float64, t.NB*t.NB)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			owner := t.Owner(i, j)
			tag := 1<<20 + i*t.NT + j
			switch {
			case owner == root && me == root:
				if tl := t.stored(i, j); tl != nil {
					copyTileIntoDense(full, m, tl, i, j, t.NB)
				}
			case me == owner:
				tl := t.stored(i, j)
				if tl == nil {
					tl = buf
					for k := range tl {
						tl[k] = 0
					}
				}
				raw.Send(root, tag, tl)
			case me == root:
				raw.Recv(owner, tag, buf)
				copyTileIntoDense(full, m, buf, i, j, t.NB)
			}
		}
	}
	return full
}

func copyTileIntoDense(full []float64, ld int, tile []float64, i, j, nb int) {
	for c := 0; c < nb; c++ {
		copy(full[i*nb+(j*nb+c)*ld:i*nb+(j*nb+c)*ld+nb], tile[c*nb:(c+1)*nb])
	}
}

// local is a rank's slate bookkeeping, kept in its mpi.Local slot so that
// the configurations a sweep runs on one world reuse it rather than rebuild
// it: the recipients of one tile broadcast (see tileBcast), Cholesky's panel
// ring and QR's V/T pairs of one tile column.
type local struct {
	need  []bool
	ring  [][]float64
	pairs [][2][]float64
}

// resized returns s at length n, every element zero, on s's array when it
// holds n.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// tileBcast moves one buffer from owner to every grid rank marked in recips
// using profiled isend/recv, sending in index order, which is increasing rank
// order. recips is a dense mark vector indexed by grid rank, not a map: each
// factorization clears and refills one per tile broadcast, and the rank space
// is small. Every rank must call it with identical arguments; returns the
// tile contents on marked ranks and on the owner, nil elsewhere. The owner's
// Isends complete at its profiler's next Waitall. recvBuf supplies the
// receive buffer, which the caller recycles once the tile is consumed.
func tileBcast(cc *critter.Comm, owner int, recips []bool, tag int, buf []float64, words int, recvBuf func(words int) []float64) []float64 {
	me := cc.Rank()
	if me == owner {
		for r, marked := range recips {
			if marked && r != owner {
				cc.Isend(r, tag, buf)
			}
		}
		return buf
	}
	if !recips[me] {
		return nil
	}
	in := recvBuf(words)
	cc.Recv(owner, tag, in)
	return in
}
