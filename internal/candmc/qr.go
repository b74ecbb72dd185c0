// Package candmc implements a pipelined 2D Householder QR factorization
// modeled on CANDMC (Solomonik), the paper's third case study: panels are
// factorized with TSQR (binary exchange tree over the process column) or
// CholeskyQR2, the Householder representation Y, T is reconstructed from the
// explicit panel orthogonal factor via an unpivoted LU (Ballard et al.), and
// the trailing matrix is updated with (I - Y T^T Y^T)^T applied via
// broadcasts along process rows and reductions along process columns.
package candmc

import (
	"fmt"
	"math/bits"

	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
)

// PanelMethod selects the panel factorization algorithm.
type PanelMethod int

// Panel factorization methods.
const (
	// PanelTSQR uses a binary-exchange TSQR tree (local geqrf kernels and
	// sendrecv exchanges of R factors), then forms the explicit panel Q by
	// a triangular solve.
	PanelTSQR PanelMethod = iota
	// PanelCholQR2 uses CholeskyQR2: two rounds of Gram-matrix assembly
	// (syrk + allreduce), Cholesky, and triangular solve.
	PanelCholQR2
)

func (m PanelMethod) String() string {
	if m == PanelCholQR2 {
		return "cholqr2"
	}
	return "tsqr"
}

// Config parameterizes the factorization: matrix shape M x N, block size B
// (both the panel width and the block-cyclic distribution block), process
// grid PR x PC, and the panel method. These mirror the paper's third case
// study (Section V-C: b = 8*2^(v%5), grid 64*2^floor(v/5) x 64/2^floor(v/5)).
type Config struct {
	M, N   int
	B      int
	PR, PC int
	Panel  PanelMethod
}

// Validate checks divisibility and grid constraints.
func (c Config) Validate(worldSize int) error {
	switch {
	case c.PR*c.PC != worldSize:
		return fmt.Errorf("candmc: grid %dx%d != world %d", c.PR, c.PC, worldSize)
	case c.M%(c.B*c.PR) != 0:
		return fmt.Errorf("candmc: M=%d not divisible by B*PR=%d", c.M, c.B*c.PR)
	case c.N%(c.B*c.PC) != 0:
		return fmt.Errorf("candmc: N=%d not divisible by B*PC=%d", c.N, c.B*c.PC)
	case c.M < c.N:
		return fmt.Errorf("candmc: requires M >= N (%d < %d)", c.M, c.N)
	case c.Panel == PanelTSQR && bits.OnesCount(uint(c.PR)) != 1:
		return fmt.Errorf("candmc: TSQR requires power-of-two PR, got %d", c.PR)
	}
	return nil
}

// Matrix is the 2D block-cyclic distributed matrix: B x B blocks, block
// (I, J) on grid rank (I mod pr, J mod pc). Local storage is column-major
// rloc x cloc; with the divisibility Validate enforces, every rank owns
// exactly M/pr x N/pc.
type Matrix struct {
	G          *grid.Grid2D
	M, N, B    int
	RowD, ColD grid.Cyclic
	RLoc, CLoc int
	Data       []float64
}

// NewMatrix allocates the local part of an M x N matrix for cfg's layout on
// the calling rank's workspace: Data lives until a workspace mark taken
// before the call is released.
func NewMatrix(g *grid.Grid2D, cfg Config) *Matrix {
	m := &Matrix{
		G: g, M: cfg.M, N: cfg.N, B: cfg.B,
		RowD: grid.Cyclic{N: cfg.M, BS: cfg.B, P: cfg.PR},
		ColD: grid.Cyclic{N: cfg.N, BS: cfg.B, P: cfg.PC},
	}
	m.RLoc = cfg.M / cfg.PR
	m.CLoc = cfg.N / cfg.PC
	m.Data = g.All.Raw().Workspace().Get(m.RLoc * m.CLoc)
	return m
}

// FillGeneral fills the local part with a deterministic dense test matrix
// (consistent across distributions). It does nothing on a cost-only world
// (mpi.World.MarkCostOnly), where Data is a view of the world's scratch.
func (m *Matrix) FillGeneral(seed uint64) {
	if m.G.All.Raw().World().CostOnly() {
		return
	}
	for lc := 0; lc < m.CLoc; lc++ {
		gc := m.ColD.GlobalIndexOf(m.G.MyCol, lc)
		for lr := 0; lr < m.RLoc; lr++ {
			gr := m.RowD.GlobalIndexOf(m.G.MyRow, lr)
			m.Data[lr+lc*m.RLoc] = Entry(gr, gc, seed)
		}
	}
}

// Entry returns the deterministic test-matrix value at global (i, j):
// grid.GeneralEntry with 2 added on the diagonal.
func Entry(i, j int, seed uint64) float64 {
	v := grid.GeneralEntry(i, j, seed)
	if i == j {
		v += 2 // keep panels well conditioned for CholeskyQR2
	}
	return v
}

// GatherDense assembles the full matrix on world rank root over the raw
// (unprofiled) communicator.
func (m *Matrix) GatherDense(root int) []float64 {
	raw := m.G.All.Raw()
	var all []float64
	if raw.Rank() == root {
		all = make([]float64, m.RLoc*m.CLoc*raw.Size())
	}
	raw.Gather(root, m.Data, all)
	if raw.Rank() != root {
		return nil
	}
	full := make([]float64, m.M*m.N)
	per := m.RLoc * m.CLoc
	for r := 0; r < raw.Size(); r++ {
		row, col := r/m.G.PC, r%m.G.PC
		local := all[r*per : (r+1)*per]
		for lc := 0; lc < m.CLoc; lc++ {
			gc := m.ColD.GlobalIndexOf(col, lc)
			for lr := 0; lr < m.RLoc; lr++ {
				gr := m.RowD.GlobalIndexOf(row, lr)
				full[gr+gc*m.M] = local[lr+lc*m.RLoc]
			}
		}
	}
	return full
}

// localRowStart returns the first local row index whose global row is >= g
// (g must be a multiple of B).
func (m *Matrix) localRowStart(g int) int {
	blk := g / m.B
	row := m.G.MyRow
	// Number of local blocks with global block index < blk.
	n := blk / m.PRBlocks()
	if blk%m.PRBlocks() > row {
		n++
	}
	return n * m.B
}

// PRBlocks returns the number of process rows (blocks cycle over them).
func (m *Matrix) PRBlocks() int { return m.G.PR }

// localColStart is the column analogue of localRowStart.
func (m *Matrix) localColStart(g int) int {
	blk := g / m.B
	col := m.G.MyCol
	n := blk / m.G.PC
	if blk%m.G.PC > col {
		n++
	}
	return n * m.B
}

// QR factorizes the distributed matrix in place: on return the upper
// triangle (banded by panels) holds R and the panel columns hold the
// reconstructed Householder vectors Y. All kernels run through the
// profiler; each panel step's buffers come off the rank's workspace and are
// popped when the step ends.
func QR(p *critter.Profiler, a *Matrix, cfg Config) {
	b := cfg.B
	g := a.G
	ws := g.All.Raw().Workspace()
	npanels := a.N / b
	for t := 0; t < npanels; t++ {
		step := ws.Mark()
		rt0 := t * b // first global row of the panel
		ct0 := t * b // first global col of the panel
		ct1 := ct0 + b
		inPanelCol := g.MyCol == t%g.PC
		lr0 := a.localRowStart(rt0)
		rloc := a.RLoc - lr0

		var y, tmat, rtile []float64
		if inPanelCol {
			y, tmat, rtile = panelFactor(p, ws, a, cfg, t, lr0, rloc)
		}
		// Trailing update: broadcast Y and T along process rows, then
		// W1 = Y^T A (column-comm reduction), W2 = T^T W1, A -= Y W2.
		lc1 := a.localColStart(ct1)
		cloc := a.CLoc - lc1
		rootInRow := t % g.PC
		ybuf := y
		if !inPanelCol {
			ybuf = ws.Get(rloc * b)
		}
		if rloc > 0 {
			g.Row.Bcast(rootInRow, ybuf)
		}
		tbuf := tmat
		if !inPanelCol {
			tbuf = ws.Get(b * b)
		}
		g.Row.Bcast(rootInRow, tbuf)
		if cloc > 0 {
			w1 := ws.Get(b * cloc)
			if rloc > 0 {
				trail := a.Data[lr0+lc1*a.RLoc:]
				p.Gemm(true, false, b, cloc, rloc, 1, ybuf, rloc, trail, a.RLoc, 0, w1, b)
			}
			w1g := ws.Get(b * cloc)
			g.Col.Allreduce(w1, w1g, 0)
			p.Trmm(blas.Left, blas.Upper, true, blas.NonUnit, b, cloc, 1, tbuf, b, w1g, b)
			if rloc > 0 {
				trail := a.Data[lr0+lc1*a.RLoc:]
				p.Gemm(false, false, rloc, cloc, b, -1, ybuf, rloc, w1g, b, 1, trail, a.RLoc)
			}
		}
		// Store Y into the panel column, then the R tile's upper triangle
		// at its owner (in this order: Y's top block shares rows with the
		// R tile, LAPACK-style, with Y's unit diagonal implicit).
		if inPanelCol {
			lc0 := a.localColStart(ct0)
			for c := 0; c < b; c++ {
				copy(a.Data[lr0+(lc0+c)*a.RLoc:lr0+(lc0+c)*a.RLoc+rloc], y[c*rloc:(c+1)*rloc])
			}
			if g.MyRow == t%g.PR {
				lrT := a.localRowStart(t * b)
				for c := 0; c < b; c++ {
					for r := 0; r <= c; r++ {
						a.Data[lrT+r+(lc0+c)*a.RLoc] = rtile[r+c*b]
					}
				}
			}
		}
		ws.Release(step)
	}
}

// panelFactor factorizes panel t on the panel process column: it computes
// the explicit orthogonal panel factor Q1 (negated for reconstruction
// robustness), reconstructs the Householder representation (Y, T), and
// returns the local Y rows, T, and the panel's R tile (written back by the
// caller after Y), all on ws. Collective over the process-column
// communicator.
func panelFactor(p *critter.Profiler, ws *mpi.Workspace, a *Matrix, cfg Config, t, lr0, rloc int) (y, tmat, rtile []float64) {
	b := cfg.B
	g := a.G
	lc0 := a.localColStart(t * b)
	// Copy the local panel rows into q (rloc x b, contiguous).
	q := ws.Get(rloc * b)
	for c := 0; c < b; c++ {
		copy(q[c*rloc:(c+1)*rloc], a.Data[lr0+(lc0+c)*a.RLoc:lr0+(lc0+c)*a.RLoc+rloc])
	}
	var r []float64
	if cfg.Panel == PanelCholQR2 {
		r = cholQR2(p, ws, g, q, rloc, b)
	} else {
		r = tsqr(p, ws, g, q, rloc, b, t)
		// Form explicit Q = P R^{-1} and refine once (CholeskyQR-style
		// second pass) for orthogonality.
		if rloc > 0 {
			p.Trsm(blas.Right, blas.Upper, false, blas.NonUnit, rloc, b, 1, r, b, q, rloc)
		}
		r2 := cholQR(p, ws, g, q, rloc, b)
		p.Trmm(blas.Left, blas.Upper, false, blas.NonUnit, b, b, 1, r2, b, r, b)
	}
	// Negate Q and R so the reconstruction LU has pivots bounded away
	// from zero (diag(Q1)+1 ~ 1): A = (-Q1)(-R).
	for i := range q {
		q[i] = -q[i]
	}
	for i := range r {
		r[i] = -r[i]
	}
	// Householder reconstruction: LU(Q1 - [I;0]) = Y W, T = -W Y0^{-T}.
	topRow := t % g.PR
	isTop := g.MyRow == topRow
	w := ws.Get(b * b)
	tmat = ws.Get(b * b)
	if isTop {
		// The top b x b block of the panel is this rank's first b local
		// rows at/after lr0.
		top := ws.Get(b * b)
		for c := 0; c < b; c++ {
			copy(top[c*b:(c+1)*b], q[c*rloc:c*rloc+b])
		}
		for i := 0; i < b; i++ {
			top[i+i*b] -= 1
		}
		if err := p.GetrfNoPiv(b, b, top, b); err != nil {
			_ = err // tolerated under selective execution
		}
		// Split factors: W = upper incl. diagonal, L0 = unit lower.
		l0 := ws.Get(b * b)
		for c := 0; c < b; c++ {
			for rr := 0; rr <= c; rr++ {
				w[rr+c*b] = top[rr+c*b]
			}
			l0[c+c*b] = 1
			for rr := c + 1; rr < b; rr++ {
				l0[rr+c*b] = top[rr+c*b]
			}
		}
		// T = -W L0^{-T}.
		copy(tmat, w)
		p.Trsm(blas.Right, blas.Lower, true, blas.Unit, b, b, -1, l0, b, tmat, b)
		// Replace the top rows of Y with L0 (unit lower trapezoid top).
		for c := 0; c < b; c++ {
			copy(q[c*rloc:c*rloc+b], l0[c*b:(c+1)*b])
		}
	}
	g.Col.Bcast(topRow, w)
	g.Col.Bcast(topRow, tmat)
	// Below-top rows: Y = Q W^{-1}.
	start := 0
	if isTop {
		start = b
	}
	if rloc-start > 0 {
		sub := ws.Get((rloc - start) * b)
		for c := 0; c < b; c++ {
			copy(sub[c*(rloc-start):(c+1)*(rloc-start)], q[c*rloc+start:c*rloc+rloc])
		}
		p.Trsm(blas.Right, blas.Upper, false, blas.NonUnit, rloc-start, b, 1, w, b, sub, rloc-start)
		for c := 0; c < b; c++ {
			copy(q[c*rloc+start:c*rloc+rloc], sub[c*(rloc-start):(c+1)*(rloc-start)])
		}
	}
	return q, tmat, r
}

// cholQR performs one CholeskyQR pass: G = P^T P (syrk + column allreduce),
// R = chol(G)^T, P = P R^{-1}. Returns R (b x b upper, column-major).
func cholQR(p *critter.Profiler, ws *mpi.Workspace, g *grid.Grid2D, q []float64, rloc, b int) []float64 {
	gram := ws.Get(b * b)
	if rloc > 0 {
		p.Syrk(blas.Lower, true, b, rloc, 1, q, rloc, 0, gram, b)
	}
	gsum := ws.Get(b * b)
	g.Col.Allreduce(gram, gsum, 0)
	if err := p.Potrf(b, gsum, b); err != nil {
		_ = err
	}
	// R = L^T: build upper-triangular R from the lower factor.
	r := ws.Get(b * b)
	for c := 0; c < b; c++ {
		for rr := c; rr < b; rr++ {
			r[c+rr*b] = gsum[rr+c*b]
		}
	}
	if rloc > 0 {
		p.Trsm(blas.Right, blas.Lower, true, blas.NonUnit, rloc, b, 1, gsum, b, q, rloc)
	}
	return r
}

// cholQR2 runs two CholeskyQR passes and returns R = R2*R1.
func cholQR2(p *critter.Profiler, ws *mpi.Workspace, g *grid.Grid2D, q []float64, rloc, b int) []float64 {
	r1 := cholQR(p, ws, g, q, rloc, b)
	r2 := cholQR(p, ws, g, q, rloc, b)
	p.Trmm(blas.Left, blas.Upper, false, blas.NonUnit, b, b, 1, r2, b, r1, b)
	return r1
}

// tsqr reduces the panel's R factor over the process column with a binary
// exchange tree: local geqrf, then log2(pr) rounds of sendrecv + stacked
// geqrf. Every column rank ends with the final R (b x b upper). The local
// panel q is left unmodified (only a copy is factored).
func tsqr(p *critter.Profiler, ws *mpi.Workspace, g *grid.Grid2D, q []float64, rloc, b, panel int) []float64 {
	r := ws.Get(b * b)
	if rloc > 0 {
		work := ws.Get(len(q))
		copy(work, q)
		tau := ws.Get(b)
		p.Geqrf(rloc, b, b, work, rloc, tau)
		for c := 0; c < b; c++ {
			for rr := 0; rr <= c && rr < rloc; rr++ {
				r[rr+c*b] = work[rr+c*rloc]
			}
		}
	}
	me := g.Col.Rank()
	stacked := ws.Get(2 * b * b)
	peerR := ws.Get(b * b)
	for lvl := 1; lvl < g.PR; lvl <<= 1 {
		peer := me ^ lvl
		tag := panel*64 + lvl
		g.Col.Sendrecv(peer, tag, r, peerR)
		lo, hi := r, peerR
		if peer < me {
			lo, hi = peerR, r
		}
		for c := 0; c < b; c++ {
			copy(stacked[c*2*b:c*2*b+b], lo[c*b:(c+1)*b])
			copy(stacked[c*2*b+b:(c+1)*2*b], hi[c*b:(c+1)*b])
		}
		tau := ws.Get(b)
		p.Geqrf(2*b, b, b, stacked, 2*b, tau)
		for c := 0; c < b; c++ {
			for rr := 0; rr < b; rr++ {
				if rr <= c {
					r[rr+c*b] = stacked[rr+c*2*b]
				} else {
					r[rr+c*b] = 0
				}
			}
		}
	}
	return r
}
