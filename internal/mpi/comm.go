package mpi

import (
	"cmp"
	"fmt"
	"slices"

	"critter/internal/sim"
)

// Comm is one rank's handle on a communicator: an ordered group of world
// ranks with a private matching context. Handles are per-rank values; the
// same logical communicator is represented by size-many handles sharing a
// context id.
type Comm struct {
	w     *World
	ctx   uint64
	rank  int   // my rank within this communicator
	group []int // world rank of each communicator rank, in comm order
	state *rankState

	collSeq uint64 // per-rank count of collectives issued on this comm
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.state.worldRank }

// WorldSize returns the size of the world communicator.
func (c *Comm) WorldSize() int { return c.w.size }

// Group returns the world ranks of the communicator members in comm order.
// The caller must not modify the returned slice.
func (c *Comm) Group() []int { return c.group }

// World returns the underlying world.
func (c *Comm) World() *World { return c.w }

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.state.clock.Now() }

// AdvanceClock moves the rank's virtual clock forward by dt seconds. Only
// tests call it, to stagger ranks' clocks.
func (c *Comm) AdvanceClock(dt float64) { c.state.clock.Advance(dt) }

// ResetClock rewinds the rank's virtual clock to zero. All ranks should
// reset collectively (e.g. after a Barrier) between tuning configurations.
func (c *Comm) ResetClock() { c.state.clock.Reset() }

// RNG returns the rank's deterministic noise stream.
func (c *Comm) RNG() *sim.RNG { return c.state.rng }

// Machine returns the world's machine model.
func (c *Comm) Machine() sim.Machine { return c.w.machine }

// Compute advances the rank's clock by the modeled duration of a kernel
// performing the given flops, with multiplicative noise, and returns the
// sampled duration.
func (c *Comm) Compute(flops float64) float64 {
	m := c.w.machine
	dt := m.ComputeTime(flops) * m.Noise(c.state.rng)
	c.state.clock.Advance(dt)
	return dt
}

// Rekey makes everything the rank draws from here on a function of key
// rather than of what ran before: the communicator's matching context is
// derived from key and its collective sequence restarts at zero — so the
// round numbers, the per-round collective noise and the context of every
// communicator Split or Dup from it below are relative to key — and the
// rank's noise stream is re-seeded from (world seed, world rank, key). The
// harness calls it on the world communicator before each execution of a
// configuration, which is what makes a run's timings independent of the runs
// before it. Local, no communication: every member must call it with the same
// key at the same point of the program, with no message in flight on the
// communicator (one posted under the old context would never match).
func (c *Comm) Rekey(key uint64) {
	c.ctx = sim.Mix(key, 0x72656b6579)
	c.collSeq = 0
	c.state.rng.Seed(sim.Mix(c.w.seed, uint64(c.state.worldRank), key))
}

// Split partitions the communicator by color, ordering each new group by
// (key, parent rank), and returns the caller's handle on its new
// communicator. Ranks passing negative colors receive nil (MPI_UNDEFINED).
// Split is collective over the parent communicator: one reduceRound whose
// last arriver builds every color's group (finishSplit), so the members of
// one new communicator share one group slice, as Dup's members do, and a
// round whose members deposit what an earlier round's did on the world gets
// that round's slices back. The handle is the one the rank freed last (see
// Free), when there is one: a program that splits the same grid once per
// configuration and frees it after makes its handles once. The round runs either way, so the new
// communicator's context and every sequence number and clock are the same.
func (c *Comm) Split(color, key int) *Comm {
	mine, _, seq := fabricOf[splitSlot](c.w).reduceRound(c,
		splitSlot{color: color, key: key, worldRank: c.state.worldRank}, c.w.finishSplit)
	if color < 0 {
		return nil
	}
	return c.state.handle(c.w, splitCtx(c.ctx, seq, color, mine.group[0]), mine.rank, mine.group)
}

// SplitAs returns, without a round, what c.Split(color, key) would return
// when c's group is that of the communicator sib was split from by
// Split(color, key): sib's group and rank under c's context, on a freed
// handle when the rank has one, as Split's. It advances c's collective
// sequence exactly as Split does, so the two stay interchangeable for every
// later round on c, and returns nil when sib is nil (a negative color). The
// profiler splits its internal twin of a communicator this way.
func (c *Comm) SplitAs(sib *Comm, color int) *Comm {
	seq := c.collSeq
	c.collSeq++
	if sib == nil {
		return nil
	}
	return c.state.handle(c.w, splitCtx(c.ctx, seq, color, sib.group[0]), sib.rank, sib.group)
}

// splitCtx is the context id of a communicator split from the one with
// context parent in round seq: identical across the members of the new
// communicator (leader is its comm rank 0's world rank) and unique across
// (parent comm, round, color).
func splitCtx(parent, seq uint64, color, leader int) uint64 {
	return sim.Mix(parent, seq, uint64(color)+0x51b7, uint64(leader)+1)
}

// splitSlot is one member's slot of a Split round: its deposit (color, key,
// world rank; its parent rank is the slot index) and, once finishSplit has
// run, its new group and its rank in it.
type splitSlot struct {
	color, key, worldRank int
	group                 []int
	rank                  int
}

// deposit is what the member brought to the round.
func (s *splitSlot) deposit() splitDeposit { return splitDeposit{s.color, s.key, s.worldRank} }

// splitDeposit is what a member brings to a Split round.
type splitDeposit struct{ color, key, worldRank int }

// splitShape is a Split round the world has finished: its members' deposits
// in parent rank order, and the one []int every color's group was carved
// from.
type splitShape struct {
	deposits []splitDeposit
	groups   []int
}

// finishSplit is Split's finish, run by the last arriver while every other
// member waits: it orders the members of each non-negative color by (color,
// key, parent rank) in the world's scratch, carves every color's group from
// one []int, and writes each member's group and rank into its slot. Parent
// ranks are distinct, so the order is total and any comparison sort yields
// the same permutation. The []int is the one an earlier round with the same
// deposits made, when the world has finished one: its groups hold the same
// ranks, and no holder writes into a group, so the communicators of both
// rounds share them. A program that splits the same grid once per
// configuration makes its groups once.
func (w *World) finishSplit(members []splitSlot) {
	h := uint64(len(members))
	for i := range members {
		m := &members[i]
		h = sim.Mix(h, uint64(m.color), uint64(m.key), uint64(m.worldRank))
	}
	shape, seen := w.splits[h]
	if seen && !slices.EqualFunc(shape.deposits, members, func(d splitDeposit, m splitSlot) bool {
		return d == m.deposit()
	}) {
		seen = false // a hash collision: this round's groups replace the other's
	}
	if cap(w.splitOrder) < len(members) {
		w.splitOrder = make([]int, 0, len(members))
	}
	order := w.splitOrder[:0]
	for i := range members {
		if members[i].color >= 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		ma, mb := &members[a], &members[b]
		if ma.color != mb.color {
			return cmp.Compare(ma.color, mb.color)
		}
		if ma.key != mb.key {
			return cmp.Compare(ma.key, mb.key)
		}
		return a - b
	})
	if !seen {
		shape = splitShape{deposits: make([]splitDeposit, len(members)), groups: make([]int, len(order))}
		for i := range members {
			shape.deposits[i] = members[i].deposit()
		}
		if w.splits == nil {
			w.splits = make(map[uint64]splitShape)
		}
		w.splits[h] = shape
	}
	for start := 0; start < len(order); {
		color := members[order[start]].color
		end := start
		for end < len(order) && members[order[end]].color == color {
			end++
		}
		// Capacity clipped: a member appending to its group must not write
		// into the next color's.
		group := shape.groups[start:end:end]
		for r, i := range order[start:end] {
			if !seen {
				group[r] = members[i].worldRank
			}
			members[i].group, members[i].rank = group, r
		}
		start = end
	}
}

// Dup returns a new communicator with the same group but a distinct matching
// context, on a freed handle when the rank has one. Dup is collective; it is
// used by the profiler to keep internal traffic from colliding with
// application messages.
func (c *Comm) Dup() *Comm {
	_, _, seq := fabricOf[struct{}](c.w).reduceRound(c, struct{}{}, nil)
	return c.state.handle(c.w, sim.Mix(c.ctx, seq, 0xd0bb1e), c.rank, c.group)
}

// Free hands a communicator that Split, SplitAs or Dup returned back to the
// calling rank, whose next Split, SplitAs or Dup returns this handle (the
// last freed first). It is local: no round, no clock, and the other members
// need not free theirs. The handle must not be used after, and nothing may
// be pending on it. Free panics on the world communicator Run handed the
// rank and on a handle already freed, so one handle never has two owners.
func (c *Comm) Free() {
	switch {
	case c == c.state.world:
		panic("mpi: Free of the world communicator")
	case c.group == nil:
		panic("mpi: Free of a freed communicator")
	}
	c.group = nil // a freed handle pins no group
	c.state.freed = append(c.state.freed, c)
}

// handle returns the rank's handle on a new communicator: the one it freed
// last, when there is one, else a new one.
func (s *rankState) handle(w *World, ctx uint64, rank int, group []int) *Comm {
	var c *Comm
	if k := len(s.freed); k > 0 {
		c, s.freed[k-1] = s.freed[k-1], nil
		s.freed = s.freed[:k-1]
	} else {
		c = new(Comm)
	}
	*c = Comm{w: w, ctx: ctx, rank: rank, group: group, state: s}
	return c
}

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= len(c.group) {
		panic(fmt.Sprintf("mpi: peer rank %d out of range [0,%d)", peer, len(c.group)))
	}
}
