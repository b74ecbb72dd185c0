package mpi

import (
	"fmt"
	"slices"
	"sort"

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

// AdvanceClock moves the rank's virtual clock forward by dt seconds.
// It is used by the profiler to charge measured kernel durations.
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

// ComputeTime returns a sampled duration for a kernel of the given flops
// without advancing the clock (used when the profiler wants to measure
// without committing, e.g. during selective replay).
func (c *Comm) ComputeTime(flops float64) float64 {
	m := c.w.machine
	return m.ComputeTime(flops) * m.Noise(c.state.rng)
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
// Split is collective over the parent communicator.
func (c *Comm) Split(color, key int) *Comm {
	all, _, seq := fabricOf[splitRecord](c.w).gatherRound(c,
		splitRecord{color, key, c.rank, c.state.worldRank})
	mine := c.state.splitScratch[:0]
	for _, e := range all {
		if e.color == color {
			mine = append(mine, e)
		}
	}
	c.state.splitScratch = mine
	if color < 0 {
		return nil
	}
	// Parent ranks are distinct, so the (key, parentRank) order is total
	// and any comparison sort yields the same permutation.
	slices.SortFunc(mine, func(a, b splitRecord) int {
		if a.key != b.key {
			return a.key - b.key
		}
		return a.parentRank - b.parentRank
	})
	group := make([]int, len(mine))
	myRank := -1
	for i, e := range mine {
		group[i] = e.worldRank
		if e.worldRank == c.state.worldRank {
			myRank = i
		}
	}
	// Deterministic context id, identical across members of the new comm
	// and unique across (parent comm, round, color).
	ctx := sim.Mix(c.ctx, seq, uint64(color)+0x51b7, uint64(group[0])+1)
	return &Comm{
		w:     c.w,
		ctx:   ctx,
		rank:  myRank,
		group: group,
		state: c.state,
	}
}

// splitRecord is the (color, key) deposit of one rank in a Split round.
type splitRecord struct{ color, key, parentRank, worldRank int }

// Dup returns a new communicator with the same group but a distinct matching
// context. Dup is collective; it is used by the profiler to keep internal
// traffic from colliding with application messages.
func (c *Comm) Dup() *Comm {
	_, _, seq := fabricOf[struct{}](c.w).gatherRound(c, struct{}{})
	ctx := sim.Mix(c.ctx, seq, 0xd0bb1e)
	return &Comm{
		w:     c.w,
		ctx:   ctx,
		rank:  c.rank,
		group: c.group,
		state: c.state,
	}
}

// Stride describes a communicator's placement in the world as the offset of
// its first member plus the (stride, size) of each dimension when the group
// forms an arithmetic progression (possibly multi-level). It is the
// parameterization the paper uses to identify communication channels.
type Stride struct {
	Offset int
	Stride int // 0 for a single-member group
}

// GroupStride returns (offset, stride) when the sorted world-rank group forms
// an arithmetic progression, which holds for every fiber/slice communicator
// of a cartesian grid. ok is false otherwise.
func (c *Comm) GroupStride() (s Stride, ok bool) {
	sorted := append([]int(nil), c.group...)
	sort.Ints(sorted)
	s.Offset = sorted[0]
	if len(sorted) == 1 {
		return s, true
	}
	d := sorted[1] - sorted[0]
	for i := 2; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] != d {
			return s, false
		}
	}
	s.Stride = d
	return s, true
}

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= len(c.group) {
		panic(fmt.Sprintf("mpi: peer rank %d out of range [0,%d)", peer, len(c.group)))
	}
}
