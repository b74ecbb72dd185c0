package mpi

import (
	"fmt"
	"math"

	"critter/internal/sim"
)

// ReduceOp is an elementwise reduction operator for the data collectives.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(acc, x float64) float64 {
	switch op {
	case OpSum:
		return acc + x
	case OpMax:
		return math.Max(acc, x)
	case OpMin:
		return math.Min(acc, x)
	}
	panic(fmt.Sprintf("mpi: unknown reduce op %d", op))
}

// collView is the payload of a data collective: views of the caller's own
// input and output buffers. Nothing is copied into the round — the caller is
// suspended from its deposit until the last arriver's finish returns, so finish
// reads every in and writes every out in place. A member's in may alias its
// own out; each finish below therefore reads all it needs of a member's in
// before writing that member's out, going through the finishing rank's
// scratch where no such order exists.
type collView struct {
	in, out []float64
}

// collRound runs one data-collective round on the world's view fabric and
// returns the maximum participant clock and the round's sequence number.
// On a cost-only world (World.MarkCostOnly) it runs no round and moves no
// data: it takes the round's sequence number and returns the caller's own
// clock, which is every member's when they enter with equal clocks.
func (c *Comm) collRound(in, out []float64, finish func(members []collView)) (float64, uint64) {
	if c.w.costOnly {
		seq := c.collSeq
		c.collSeq++
		return c.state.clock.Now(), seq
	}
	_, maxT, seq := c.w.collFab.reduceRound(c, collView{in, out}, finish)
	return maxT, seq
}

// scratch returns the calling rank's length-n collective scratch buffer
// (contents unspecified), grown on demand and kept for the rank's next
// finish.
func (c *Comm) scratch(n int) []float64 {
	if cap(c.state.collScratch) < n {
		c.state.collScratch = make([]float64, n)
	}
	return c.state.collScratch[:n]
}

// collKind distinguishes cost shapes of the collectives.
type collKind int

const (
	collSync collKind = iota // barrier: latency only
	collTree                 // bcast/reduce/allreduce: steps*(alpha+beta*n)
	collVol                  // (all)gather/scatter: steps*alpha + beta*total
)

// collCost returns the noiseless virtual duration of a collective moving
// nbytes (per-rank payload for tree ops, total volume for vol ops) among p
// ranks, in the step shape sim.Machine.CollectiveTime defines.
func (c *Comm) collCost(kind collKind, nbytes float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	m := c.w.machine
	switch kind {
	case collSync:
		return m.CollectiveTime(0, p)
	case collTree:
		return m.CollectiveTime(nbytes, p)
	case collVol:
		return m.CollectiveTime(0, p) + m.Beta*nbytes
	}
	panic("mpi: unknown collective kind")
}

// finishColl advances the rank's clock to the synchronized completion time
// of a collective round: max participant clock plus the modeled cost with a
// per-round shared noise factor (so all members complete together).
func (c *Comm) finishColl(maxT float64, kind collKind, nbytes float64, seq uint64) float64 {
	cost := c.collCost(kind, nbytes, len(c.group))
	m := c.w.machine
	if m.NoiseSigma > 0 {
		rng := sim.NewRNG(sim.Mix(c.w.seed, c.ctx, seq, 0xc0))
		cost *= m.Noise(rng)
	}
	before := c.state.clock.Now()
	c.state.clock.AdvanceTo(maxT + cost)
	return c.state.clock.Now() - before
}

// Barrier blocks until all members arrive and synchronizes virtual clocks.
func (c *Comm) Barrier() float64 {
	maxT, seq := c.collRound(nil, nil, nil)
	return c.finishColl(maxT, collSync, 0, seq)
}

// Bcast copies root's buf into every member's buf. All members must pass
// equal-length buffers.
func (c *Comm) Bcast(root int, buf []float64) float64 {
	c.checkPeer(root)
	maxT, seq := c.collRound(nil, buf, func(members []collView) {
		src := members[root].out
		for r, m := range members {
			if len(m.out) != len(src) {
				panic(fmt.Sprintf("mpi: bcast length mismatch: root has %d, rank %d has %d", len(src), r, len(m.out)))
			}
			if r != root {
				copy(m.out, src)
			}
		}
	})
	return c.finishColl(maxT, collTree, float64(8*len(buf)), seq)
}

// reduceViews folds every member's in elementwise with op, in comm-rank
// order, into dst, which must not alias any member's buffers.
func reduceViews(dst []float64, members []collView, op ReduceOp) {
	for r, m := range members {
		if len(m.in) != len(dst) {
			panic(fmt.Sprintf("mpi: allreduce length mismatch: out %d, in %d at rank %d", len(dst), len(m.in), r))
		}
		if r == 0 {
			copy(dst, m.in)
			continue
		}
		for i, x := range m.in {
			dst[i] = op.apply(dst[i], x)
		}
	}
}

// Allreduce combines every member's in elementwise with op into every
// member's out: one fold in comm-rank order on the last arriver, copied to
// each out (bit-identical to every member folding for itself).
func (c *Comm) Allreduce(in, out []float64, op ReduceOp) float64 {
	maxT, seq := c.collRound(in, out, func(members []collView) {
		acc := c.scratch(len(members[0].out))
		reduceViews(acc, members, op)
		for r, m := range members {
			if len(m.out) != len(acc) {
				panic(fmt.Sprintf("mpi: allreduce length mismatch: out %d, in %d at rank %d", len(m.out), len(acc), r))
			}
			copy(m.out, acc)
		}
	})
	return c.finishColl(maxT, collTree, float64(8*len(in)), seq)
}

// gatherInto concatenates every member's in, each of n elements, into dst in
// comm-rank order, starting with rank first's segment (so a root whose in
// aliases its own out is read before it is overwritten). dst belongs to rank
// owner, named in the length-mismatch panic.
func gatherInto(dst []float64, owner int, members []collView, n, first int) {
	if len(dst) != n*len(members) {
		panic(fmt.Sprintf("mpi: gather length mismatch: out %d, want %d at rank %d", len(dst), n*len(members), owner))
	}
	copy(dst[first*n:(first+1)*n], members[first].in)
	for r, m := range members {
		if len(m.in) != n {
			panic(fmt.Sprintf("mpi: gather ragged input: rank %d has %d, want %d", r, len(m.in), n))
		}
		if r != first {
			copy(dst[r*n:(r+1)*n], m.in)
		}
	}
}

// Allgather concatenates every member's in (all of equal length) into out in
// comm-rank order; len(out) must be len(in)*Size().
func (c *Comm) Allgather(in, out []float64) float64 {
	maxT, seq := c.collRound(in, out, func(members []collView) {
		n := len(members[0].in)
		all := c.scratch(n * len(members))
		gatherInto(all, 0, members, n, 0)
		for r, m := range members {
			if len(m.out) != len(all) {
				panic(fmt.Sprintf("mpi: gather length mismatch: out %d, want %d at rank %d", len(m.out), len(all), r))
			}
			copy(m.out, all)
		}
	})
	return c.finishColl(maxT, collVol, float64(8*len(in)*(len(c.group)-1)), seq)
}

// Gather concatenates every member's in into root's out.
func (c *Comm) Gather(root int, in, out []float64) float64 {
	c.checkPeer(root)
	maxT, seq := c.collRound(in, out, func(members []collView) {
		gatherInto(members[root].out, root, members, len(members[root].in), root)
	})
	return c.finishColl(maxT, collVol, float64(8*len(in)*(len(c.group)-1)), seq)
}

// Scatter splits root's in into Size() equal segments and delivers the i-th
// segment to comm rank i's out.
func (c *Comm) Scatter(root int, in, out []float64) float64 {
	c.checkPeer(root)
	maxT, seq := c.collRound(in, out, func(members []collView) {
		full := members[root].in
		// Root's own segment last: its out may alias any part of its in.
		for i := range members {
			r := (root + 1 + i) % len(members)
			seg := members[r].out
			if len(seg)*len(members) != len(full) {
				panic(fmt.Sprintf("mpi: scatter length mismatch: in %d, out %d x %d ranks at rank %d", len(full), len(seg), len(members), r))
			}
			copy(seg, full[r*len(seg):])
		}
	})
	return c.finishColl(maxT, collVol, float64(8*len(out)*(len(c.group)-1)), seq)
}
