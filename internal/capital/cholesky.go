// Package capital implements a recursive communication-avoiding Cholesky
// factorization with simultaneous triangular inversion on a 3D processor
// grid, modeled on CAPITAL (Hutter & Solomonik), the paper's first case
// study. The matrix is replicated across the c layers of a c x c x c grid
// and distributed by block-cyclic rows within each layer; matrix products
// split their contraction dimension across the depth fibers (allreduce) and
// assemble operands with intra-layer allgathers, reproducing the BSP cost
// structure Theta(alpha*n/b + beta*(n^2/p^(2/3)+nb) + gamma*(n^3/p + nb^2))
// and the kernel population (potrf, trtri, trmm, gemm, syrk; bcast,
// allreduce, allgather, gather, scatter) of Section V-A.
//
// The recursion factors A = L L^T while maintaining L^{-1}:
//
//	L21 = A21 L11^{-T}; A22 <- A22 - L21 L21^T;
//	S21 = -L22^{-1} L21 L11^{-1}.
//
// Base-case blocks (dimension <= B) are factorized with one of the paper's
// three strategies: (1) gather to one rank of layer 0, factor, scatter,
// broadcast along depth; (2) allgather within every layer and factor
// redundantly; (3) allgather within layer 0 only, factor redundantly there,
// broadcast along depth.
package capital

import (
	"fmt"
	"math"

	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
)

// Config parameterizes the factorization: matrix dimension N, base-case
// block size B (the tuning parameter), distribution block rows BB, base-case
// strategy (1-3), and grid edge C (world = C^3). Mirrors the paper's first
// case study (Section V-C: b = 128*2^(v%5), strategy ceil((v+1)/5)).
type Config struct {
	N        int
	B        int
	BB       int
	Strategy int
	C        int
}

// Validate checks alignment constraints: N = B * 2^k, BB | B.
func (c Config) Validate(worldSize int) error {
	switch {
	case c.C*c.C*c.C != worldSize:
		return fmt.Errorf("capital: C^3=%d != world %d", c.C*c.C*c.C, worldSize)
	case c.Strategy < 1 || c.Strategy > 3:
		return fmt.Errorf("capital: strategy %d not in 1..3", c.Strategy)
	case c.B <= 0 || c.BB <= 0 || c.B%c.BB != 0:
		return fmt.Errorf("capital: BB=%d must divide B=%d", c.BB, c.B)
	case c.N%c.B != 0 || (c.N/c.B)&(c.N/c.B-1) != 0:
		return fmt.Errorf("capital: N/B=%d/%d must be a power of two", c.N, c.B)
	}
	return nil
}

// Chol holds one rank's state: the replicated-by-layer, row-cyclic local
// slabs of A, L, and L^{-1} (each rloc x N column-major). The slabs and every
// buffer of the factorization live on the rank's workspace.
//
// On a cost-only world (mpi.World.MarkCostOnly: a clock profiler's, whose
// kernels read no number) the factorization moves no data: every buffer is
// a view of the world's scratch, and the copies that pack, unpack, assemble
// and write back blocks, the Schur update's subtractions and the base
// case's zeroing are skipped. Every kernel call, message and send order is
// the same as on any other world.
type Chol struct {
	G    *grid.Grid3D
	Cfg  Config
	Rows grid.Cyclic // N rows in BB-blocks over the c^2 layer ranks
	RLoc int
	A    []float64
	L    []float64
	Linv []float64
	p    *critter.Profiler
	ws   *mpi.Workspace
	// costOnly marks a rank of a cost-only world.
	costOnly bool
}

// New allocates the local state on the calling rank's workspace — it lives
// until a workspace mark taken before the call is released — and fills A with
// the deterministic SPD test matrix (identical on every layer). On a
// cost-only world (mpi.World.MarkCostOnly) the slabs are views of the
// world's scratch and A is not filled.
func New(p *critter.Profiler, g *grid.Grid3D, cfg Config) *Chol {
	p2 := cfg.C * cfg.C
	ch := &Chol{
		G: g, Cfg: cfg, p: p, ws: g.All.Raw().Workspace(),
		Rows: grid.Cyclic{N: cfg.N, BS: cfg.BB, P: p2},
	}
	ch.RLoc = ch.Rows.LocalItems(g.LayerRank)
	ch.A = ch.ws.Get(ch.RLoc * cfg.N)
	ch.L = ch.ws.Get(ch.RLoc * cfg.N)
	ch.Linv = ch.ws.Get(ch.RLoc * cfg.N)
	if ch.costOnly = g.All.Raw().World().CostOnly(); ch.costOnly {
		return ch
	}
	boost := 4 + 2*math.Log(float64(cfg.N))
	for lb := 0; lb < ch.Rows.LocalBlocks(g.LayerRank); lb++ {
		g0 := ch.Rows.GlobalBlock(g.LayerRank, lb) * cfg.BB
		for r := 0; r < cfg.BB; r++ {
			gi := g0 + r
			li := lb*cfg.BB + r
			for j := 0; j < cfg.N; j++ {
				ch.A[li+j*ch.RLoc] = grid.SPDEntry(gi, j, boost)
			}
		}
	}
	return ch
}

// Run performs the full factorization with inverse maintenance.
func (ch *Chol) Run() { ch.cholInv(0, ch.Cfg.N) }

// slots is a run of consecutive local block slots: the bi-th is first+bi,
// for bi in [0, n).
type slots struct{ first, n int }

// localBlocksIn returns the local block slots whose global rows lie in
// [r0, r1); both bounds must be BB-aligned and r1 at most N. Local slot lb
// holds global block lb*P + LayerRank, so the slots in a block range are
// consecutive.
func (ch *Chol) localBlocksIn(r0, r1 int) slots {
	r, p := ch.G.LayerRank, ch.Rows.P
	// from returns the first local slot whose global block is at least b.
	from := func(b int) int {
		if b <= r {
			return 0
		}
		return (b - r + p - 1) / p
	}
	lo, hi := from(r0/ch.Cfg.BB), from(r1/ch.Cfg.BB)
	return slots{first: lo, n: hi - lo}
}

// maxBlocksIn returns the maximum, over layer ranks, of the number of
// BB-blocks of [r0, r1) owned (the allgather padding width).
func (ch *Chol) maxBlocksIn(r0, r1 int) int {
	nb := (r1 - r0) / ch.Cfg.BB
	p2 := ch.Cfg.C * ch.Cfg.C
	return (nb + p2 - 1) / p2
}

// allgatherBlock assembles the dense (r1-r0) x (c1-c0) block of the stored
// matrix mat (A, L, or Linv) on every rank of the layer, via a padded
// intra-layer allgather. Packing and unpacking are profiled as the
// block-to-cyclic redistribution kernel, as the paper does for CAPITAL
// (Section V-D). The returned block is pushed on the workspace before the
// mark that pops the send and receive buffers, so it is the only thing the
// call leaves there.
func (ch *Chol) allgatherBlock(mat []float64, r0, r1, c0, c1 int) []float64 {
	bb := ch.Cfg.BB
	rows, cols := r1-r0, c1-c0
	maxB := ch.maxBlocksIn(r0, r1)
	dense := ch.ws.Get(rows * cols)
	defer ch.ws.Release(ch.ws.Mark())
	contrib := ch.ws.Get(maxB * bb * cols)
	mine := ch.localBlocksIn(r0, r1)
	ch.p.Kernel("blk2cyc", mine.n, cols, 0, 0, float64(mine.n*bb*cols), func() {
		for bi := range mine.n {
			lb := mine.first + bi
			for c := 0; c < cols; c++ {
				src := mat[lb*bb+(c0+c)*ch.RLoc : lb*bb+(c0+c)*ch.RLoc+bb]
				copy(contrib[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb], src)
			}
		}
	})
	p2 := ch.Cfg.C * ch.Cfg.C
	out := ch.ws.Get(p2 * len(contrib))
	ch.G.Layer.Allgather(contrib, out)
	ch.p.Kernel("cyc2blk", rows/bb, cols, 0, 0, float64(rows*cols), func() {
		for owner := 0; owner < p2; owner++ {
			seg := out[owner*len(contrib) : (owner+1)*len(contrib)]
			d := grid.Cyclic{N: ch.Cfg.N, BS: bb, P: p2}
			bi := 0
			for lb := 0; lb < d.LocalBlocks(owner); lb++ {
				g0 := d.GlobalBlock(owner, lb) * bb
				if g0 < r0 || g0 >= r1 {
					continue
				}
				for c := 0; c < cols; c++ {
					copy(dense[g0-r0+c*rows:g0-r0+c*rows+bb], seg[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb])
				}
				bi++
			}
		}
	})
	return dense
}

// writeBlockRows scatters dense rows of a (r1-r0) x cols block back into the
// local cyclic slab of mat at columns [c0, c0+cols).
func (ch *Chol) writeBlockRows(mat, dense []float64, r0, r1, c0, cols int) {
	if ch.costOnly {
		return
	}
	bb := ch.Cfg.BB
	rows := r1 - r0
	mine := ch.localBlocksIn(r0, r1)
	for lb := mine.first; lb < mine.first+mine.n; lb++ {
		g0 := ch.Rows.GlobalBlock(ch.G.LayerRank, lb) * bb
		for c := 0; c < cols; c++ {
			copy(mat[lb*bb+(c0+c)*ch.RLoc:lb*bb+(c0+c)*ch.RLoc+bb],
				dense[g0-r0+c*rows:g0-r0+c*rows+bb])
		}
	}
}

// cholInv factorizes A[i0:i1, i0:i1], writing L and Linv rows.
func (ch *Chol) cholInv(i0, i1 int) {
	if i1-i0 <= ch.Cfg.B {
		ch.baseCase(i0, i1)
		return
	}
	mid := i0 + (i1-i0)/2
	ch.cholInv(i0, mid)
	s11 := mid - i0
	m2 := i1 - mid

	// L21 = A21 * L11inv^T, contraction split across depth fibers. m11inv
	// is needed again after the second recursive call; everything else of
	// the Schur update is popped before it.
	defer ch.ws.Release(ch.ws.Mark())
	m11inv := ch.allgatherBlock(ch.Linv, i0, mid, i0, mid)
	schur := ch.ws.Mark()
	mine := ch.localBlocksIn(mid, i1)
	bb := ch.Cfg.BB
	m2loc := mine.n * bb
	l21 := ch.ws.Get(m2loc * s11)
	if m2loc > 0 {
		a21 := ch.packRows(ch.A, mine, i0, s11)
		if ch.Cfg.C == 1 {
			if !ch.costOnly {
				copy(l21, a21)
			}
			ch.p.Trmm(blas.Right, blas.Lower, true, blas.NonUnit, m2loc, s11, 1, m11inv, s11, l21, m2loc)
		} else {
			k0, k1 := depthChunk(s11, ch.Cfg.C, ch.G.MyLayer)
			if k1 > k0 {
				ch.p.Gemm(false, true, m2loc, s11, k1-k0, 1,
					a21[k0*m2loc:], m2loc, m11inv[k0*s11:], s11, 0, l21, m2loc)
			}
		}
	}
	if ch.Cfg.C > 1 {
		sum := ch.ws.Get(len(l21))
		ch.G.Depth.Allreduce(l21, sum, 0)
		l21 = sum
	}
	ch.unpackRows(ch.L, l21, mine, i0, s11)

	// A22 <- A22 - L21 L21^T (lower triangle), per local row block:
	// syrk for the diagonal tile, gemm for the off-diagonal row segment.
	f := ch.allgatherBlock(ch.L, mid, i1, i0, mid) // m2 x s11
	for lb := mine.first; lb < mine.first+mine.n; lb++ {
		g0 := ch.Rows.GlobalBlock(ch.G.LayerRank, lb) * bb
		block := ch.ws.Mark()
		frow := ch.ws.Get(bb * s11)
		if !ch.costOnly {
			for c := 0; c < s11; c++ {
				copy(frow[c*bb:(c+1)*bb], f[g0-mid+c*m2:g0-mid+c*m2+bb])
			}
		}
		diag := ch.ws.Get(bb * bb)
		ch.p.Syrk(blas.Lower, false, bb, s11, 1, frow, bb, 0, diag, bb)
		if !ch.costOnly {
			for c := 0; c < bb; c++ {
				for r := c; r < bb; r++ {
					ch.A[lb*bb+r+(g0+c)*ch.RLoc] -= diag[r+c*bb]
				}
			}
		}
		if g0 > mid {
			off := ch.ws.Get(bb * (g0 - mid))
			ch.p.Gemm(false, true, bb, g0-mid, s11, 1, frow, bb, f, m2, 0, off, bb)
			if !ch.costOnly {
				for c := 0; c < g0-mid; c++ {
					for r := 0; r < bb; r++ {
						ch.A[lb*bb+r+(mid+c)*ch.RLoc] -= off[r+c*bb]
					}
				}
			}
		}
		ch.ws.Release(block)
	}
	ch.ws.Release(schur)

	ch.cholInv(mid, i1)

	// S21 = -L22inv * (L21 * L11inv): trmm on local rows, allgather, then
	// a redundant full trmm from the left.
	if m2loc > 0 {
		t1 := ch.packRows(ch.L, mine, i0, s11)
		ch.p.Trmm(blas.Right, blas.Lower, false, blas.NonUnit, m2loc, s11, 1, m11inv, s11, t1, m2loc)
		ch.unpackRows(ch.Linv, t1, mine, i0, s11)
	}
	t1full := ch.allgatherBlock(ch.Linv, mid, i1, i0, mid)
	m22inv := ch.allgatherBlock(ch.Linv, mid, i1, mid, i1)
	ch.p.Trmm(blas.Left, blas.Lower, false, blas.NonUnit, m2, s11, -1, m22inv, m2, t1full, m2)
	ch.writeBlockRows(ch.Linv, t1full, mid, i1, i0, s11)
}

// packRows copies the local blocks' columns [c0, c0+cols) into a contiguous
// (mine.n*BB) x cols matrix on the workspace.
func (ch *Chol) packRows(mat []float64, mine slots, c0, cols int) []float64 {
	bb := ch.Cfg.BB
	m := mine.n * bb
	out := ch.ws.Get(m * cols)
	if ch.costOnly {
		return out
	}
	for bi := range mine.n {
		lb := mine.first + bi
		for c := 0; c < cols; c++ {
			copy(out[bi*bb+c*m:bi*bb+c*m+bb], mat[lb*bb+(c0+c)*ch.RLoc:lb*bb+(c0+c)*ch.RLoc+bb])
		}
	}
	return out
}

// unpackRows writes a packed (mine.n*BB) x cols matrix back into the
// local slab columns [c0, c0+cols).
func (ch *Chol) unpackRows(mat, packed []float64, mine slots, c0, cols int) {
	if ch.costOnly {
		return
	}
	bb := ch.Cfg.BB
	m := mine.n * bb
	for bi := range mine.n {
		lb := mine.first + bi
		for c := 0; c < cols; c++ {
			copy(mat[lb*bb+(c0+c)*ch.RLoc:lb*bb+(c0+c)*ch.RLoc+bb], packed[bi*bb+c*m:bi*bb+c*m+bb])
		}
	}
}

// depthChunk splits a contraction range of size s into c chunks and returns
// layer l's sub-range.
func depthChunk(s, c, l int) (int, int) {
	per := (s + c - 1) / c
	k0 := l * per
	k1 := k0 + per
	if k0 > s {
		k0 = s
	}
	if k1 > s {
		k1 = s
	}
	return k0, k1
}

// baseCase factorizes (and inverts) the diagonal block [i0, i1) with the
// configured strategy.
func (ch *Chol) baseCase(i0, i1 int) {
	s := i1 - i0
	switch ch.Cfg.Strategy {
	case 1:
		ch.baseGatherScatter(i0, i1, s)
	case 2:
		ch.baseAllgatherAll(i0, i1, s)
	case 3:
		ch.baseAllgatherLayer0(i0, i1, s)
	}
}

// factorDense runs potrf then trtri on a dense s x s block, producing the
// packed pair [L | Linv] (each s x s, lower) on the workspace.
func (ch *Chol) factorDense(block []float64, s int) []float64 {
	if err := ch.p.Potrf(s, block, s); err != nil {
		_ = err // tolerated under selective execution
	}
	pair := ch.ws.Get(2 * s * s)
	inv := pair[s*s:]
	if !ch.costOnly {
		copy(pair[:s*s], block)
		copy(inv, block)
	}
	if err := ch.p.Trtri(s, inv, s); err != nil {
		_ = err
	}
	// Zero strict upper triangles for cleanliness.
	if !ch.costOnly {
		for c := 0; c < s; c++ {
			for r := 0; r < c; r++ {
				pair[r+c*s] = 0
				inv[r+c*s] = 0
			}
		}
	}
	return pair
}

// baseGatherScatter is strategy 1: gather the block onto rank 0 of layer 0,
// factorize there, scatter L and Linv back across the layer, and broadcast
// along the depth fibers.
func (ch *Chol) baseGatherScatter(i0, i1, s int) {
	bb := ch.Cfg.BB
	maxB := ch.maxBlocksIn(i0, i1)
	p2 := ch.Cfg.C * ch.Cfg.C
	contribWords := maxB * bb * s
	defer ch.ws.Release(ch.ws.Mark())
	slab := ch.ws.Get(2 * contribWords)
	if ch.G.MyLayer == 0 {
		contrib := ch.ws.Get(contribWords)
		mine := ch.localBlocksIn(i0, i1)
		ch.p.Kernel("blk2cyc", mine.n, s, 0, 0, float64(mine.n*bb*s), func() {
			for bi := range mine.n {
				lb := mine.first + bi
				for c := 0; c < s; c++ {
					copy(contrib[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb],
						ch.A[lb*bb+(i0+c)*ch.RLoc:lb*bb+(i0+c)*ch.RLoc+bb])
				}
			}
		})
		gathered := ch.ws.Get(p2 * contribWords) // root-significant only
		ch.G.Layer.Gather(0, contrib, gathered)
		var scatterSrc []float64
		if ch.G.LayerRank == 0 {
			dense := ch.assembleDense(gathered, i0, i1, s, maxB)
			pair := ch.factorDense(dense, s)
			scatterSrc = ch.packPairForScatter(pair, i0, i1, s, maxB)
		} else {
			scatterSrc = ch.ws.Get(p2 * 2 * contribWords)
		}
		ch.G.Layer.Scatter(0, scatterSrc, slab)
	}
	ch.G.Depth.Bcast(0, slab)
	ch.unpackPairSlab(slab, i0, i1, s, maxB)
}

// baseAllgatherAll is strategy 2: allgather within every layer and
// factorize redundantly everywhere.
func (ch *Chol) baseAllgatherAll(i0, i1, s int) {
	defer ch.ws.Release(ch.ws.Mark())
	dense := ch.allgatherBlock(ch.A, i0, i1, i0, i1)
	pair := ch.factorDense(dense, s)
	ch.writePair(pair, i0, i1, s)
}

// baseAllgatherLayer0 is strategy 3: allgather within layer 0 only,
// factorize redundantly across that layer, broadcast along depth.
func (ch *Chol) baseAllgatherLayer0(i0, i1, s int) {
	bb := ch.Cfg.BB
	maxB := ch.maxBlocksIn(i0, i1)
	defer ch.ws.Release(ch.ws.Mark())
	slab := ch.ws.Get(2 * maxB * bb * s)
	if ch.G.MyLayer == 0 {
		dense := ch.allgatherBlock(ch.A, i0, i1, i0, i1)
		pair := ch.factorDense(dense, s)
		// Pack my rows of both factors for the depth broadcast.
		if !ch.costOnly {
			mine := ch.localBlocksIn(i0, i1)
			for bi := range mine.n {
				g0 := ch.Rows.GlobalBlock(ch.G.LayerRank, mine.first+bi) * bb
				for c := 0; c < s; c++ {
					copy(slab[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb], pair[g0-i0+c*s:g0-i0+c*s+bb])
					copy(slab[maxB*bb*s+bi*bb+c*maxB*bb:maxB*bb*s+bi*bb+c*maxB*bb+bb],
						pair[s*s+g0-i0+c*s:s*s+g0-i0+c*s+bb])
				}
			}
		}
	}
	ch.G.Depth.Bcast(0, slab)
	ch.unpackPairSlab(slab, i0, i1, s, maxB)
}

// assembleDense unpacks a gathered padded buffer into a dense s x s block on
// the workspace.
func (ch *Chol) assembleDense(gathered []float64, i0, i1, s, maxB int) []float64 {
	bb := ch.Cfg.BB
	p2 := ch.Cfg.C * ch.Cfg.C
	contribWords := maxB * bb * s
	dense := ch.ws.Get(s * s)
	if ch.costOnly {
		return dense
	}
	d := grid.Cyclic{N: ch.Cfg.N, BS: bb, P: p2}
	for owner := 0; owner < p2; owner++ {
		seg := gathered[owner*contribWords : (owner+1)*contribWords]
		bi := 0
		for lb := 0; lb < d.LocalBlocks(owner); lb++ {
			g0 := d.GlobalBlock(owner, lb) * bb
			if g0 < i0 || g0 >= i1 {
				continue
			}
			for c := 0; c < s; c++ {
				copy(dense[g0-i0+c*s:g0-i0+c*s+bb], seg[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb])
			}
			bi++
		}
	}
	return dense
}

// packPairForScatter packs [L | Linv] into per-rank padded slabs in layer
// rank order for a Scatter, on the workspace.
func (ch *Chol) packPairForScatter(pair []float64, i0, i1, s, maxB int) []float64 {
	bb := ch.Cfg.BB
	p2 := ch.Cfg.C * ch.Cfg.C
	slabWords := 2 * maxB * bb * s
	out := ch.ws.Get(p2 * slabWords)
	if ch.costOnly {
		return out
	}
	d := grid.Cyclic{N: ch.Cfg.N, BS: bb, P: p2}
	for owner := 0; owner < p2; owner++ {
		seg := out[owner*slabWords : (owner+1)*slabWords]
		bi := 0
		for lb := 0; lb < d.LocalBlocks(owner); lb++ {
			g0 := d.GlobalBlock(owner, lb) * bb
			if g0 < i0 || g0 >= i1 {
				continue
			}
			for c := 0; c < s; c++ {
				copy(seg[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb], pair[g0-i0+c*s:g0-i0+c*s+bb])
				copy(seg[maxB*bb*s+bi*bb+c*maxB*bb:maxB*bb*s+bi*bb+c*maxB*bb+bb],
					pair[s*s+g0-i0+c*s:s*s+g0-i0+c*s+bb])
			}
			bi++
		}
	}
	return out
}

// unpackPairSlab writes a padded [L | Linv] slab into the local storage.
func (ch *Chol) unpackPairSlab(slab []float64, i0, i1, s, maxB int) {
	if ch.costOnly {
		return
	}
	bb := ch.Cfg.BB
	half := maxB * bb * s
	mine := ch.localBlocksIn(i0, i1)
	for bi := range mine.n {
		lb := mine.first + bi
		for c := 0; c < s; c++ {
			copy(ch.L[lb*bb+(i0+c)*ch.RLoc:lb*bb+(i0+c)*ch.RLoc+bb],
				slab[bi*bb+c*maxB*bb:bi*bb+c*maxB*bb+bb])
			copy(ch.Linv[lb*bb+(i0+c)*ch.RLoc:lb*bb+(i0+c)*ch.RLoc+bb],
				slab[half+bi*bb+c*maxB*bb:half+bi*bb+c*maxB*bb+bb])
		}
	}
}

// writePair writes a dense [L | Linv] pair's local rows into storage.
func (ch *Chol) writePair(pair []float64, i0, i1, s int) {
	if ch.costOnly {
		return
	}
	bb := ch.Cfg.BB
	mine := ch.localBlocksIn(i0, i1)
	for lb := mine.first; lb < mine.first+mine.n; lb++ {
		g0 := ch.Rows.GlobalBlock(ch.G.LayerRank, lb) * bb
		for c := 0; c < s; c++ {
			copy(ch.L[lb*bb+(i0+c)*ch.RLoc:lb*bb+(i0+c)*ch.RLoc+bb], pair[g0-i0+c*s:g0-i0+c*s+bb])
			copy(ch.Linv[lb*bb+(i0+c)*ch.RLoc:lb*bb+(i0+c)*ch.RLoc+bb], pair[s*s+g0-i0+c*s:s*s+g0-i0+c*s+bb])
		}
	}
}

// GatherFactor assembles the full L (or Linv) on world rank 0 from layer 0
// over the raw communicator.
func (ch *Chol) GatherFactor(mat []float64) []float64 {
	raw := ch.G.All.Raw()
	n := ch.Cfg.N
	var full []float64
	if raw.Rank() == 0 {
		full = make([]float64, n*n)
	}
	// Layer-0 ranks send their slabs; world rank 0 assembles.
	if ch.G.MyLayer == 0 && raw.Rank() != 0 {
		raw.Send(0, 1<<22+raw.Rank(), mat)
	}
	if raw.Rank() == 0 {
		p2 := ch.Cfg.C * ch.Cfg.C
		for owner := 0; owner < p2; owner++ {
			var slab []float64
			if owner == 0 {
				slab = mat
			} else {
				d := grid.Cyclic{N: n, BS: ch.Cfg.BB, P: p2}
				slab = make([]float64, d.LocalItems(owner)*n)
				raw.Recv(owner, 1<<22+owner, slab)
			}
			d := grid.Cyclic{N: n, BS: ch.Cfg.BB, P: p2}
			rl := d.LocalItems(owner)
			for lb := 0; lb < d.LocalBlocks(owner); lb++ {
				g0 := d.GlobalBlock(owner, lb) * ch.Cfg.BB
				for c := 0; c < n; c++ {
					copy(full[g0+c*n:g0+c*n+ch.Cfg.BB], slab[lb*ch.Cfg.BB+c*rl:lb*ch.Cfg.BB+c*rl+ch.Cfg.BB])
				}
			}
		}
	}
	return full
}

// DenseA returns the full SPD test matrix (for verification on the root).
func DenseA(n int) []float64 {
	boost := 4 + 2*math.Log(float64(n))
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a[i+j*n] = grid.SPDEntry(i, j, boost)
		}
	}
	return a
}
