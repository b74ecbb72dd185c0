// Package channel implements the communication-channel signatures of the
// paper's path propagation mechanism (Figure 2, Section III-B).
//
// A channel identifies a communicator by its placement in the world: the
// offset of its first member and the (stride, size) of each cartesian
// dimension it spans. Fiber and slice communicators of processor grids —
// the only communicators dense linear algebra algorithms build — always have
// such signatures. Aggregate channels are unions of channels that compose
// into a cartesian basis of the processor grid; the eager propagation policy
// switches a kernel off only once its statistics have been propagated along
// channels that jointly cover the whole grid, guaranteeing all ranks agree
// on the skip decision.
package channel

import (
	"fmt"
	"sort"
	"strings"

	"critter/internal/sim"
)

// Dim is one cartesian dimension of a channel: Size ranks separated by
// Stride in world-rank space.
type Dim struct {
	Stride int
	Size   int
}

// Channel is the placement signature of a communicator or of an aggregate
// of communicators. Dims are kept sorted by stride. The zero Channel
// describes a single rank (the empty aggregate).
type Channel struct {
	Offset int
	Dims   []Dim
}

// FromGroup derives the channel of a communicator from the world ranks of
// its members. ok is false when the sorted group is not an arithmetic
// progression (no cartesian signature exists; such channels never occur for
// grid fibers).
func FromGroup(group []int) (Channel, bool) {
	if len(group) == 0 {
		return Channel{}, false
	}
	// Grid fiber groups arrive already ascending; skip the defensive
	// sort-copy for them (communicator construction is per configuration,
	// and this path's allocations add up across a sweep).
	sorted := group
	if !isAscending(group) {
		sorted = append([]int(nil), group...)
		sort.Ints(sorted)
	}
	ch := Channel{Offset: sorted[0]}
	if len(sorted) == 1 {
		return ch, true
	}
	d := sorted[1] - sorted[0]
	if d <= 0 {
		return Channel{}, false
	}
	for i := 2; i < len(sorted); i++ {
		if sorted[i]-sorted[i-1] != d {
			return Channel{}, false
		}
	}
	ch.Dims = []Dim{{Stride: d, Size: len(sorted)}}
	return ch, true
}

// isAscending reports whether xs is strictly increasing.
func isAscending(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// Ranks returns the number of world ranks the channel spans.
func (c Channel) Ranks() int {
	n := 1
	for _, d := range c.Dims {
		n *= d.Size
	}
	return n
}

// Hash returns a stable identifier for the channel derived purely from its
// (stride, size) dimensions, as in Figure 2 of the paper ("hash id generated
// purely from (stride, size)"). Channels differing only by offset share a
// hash, which is what lets symmetric fibers of a grid aggregate alike.
func (c Channel) Hash() uint64 {
	// Mix does not retain its argument, so the words stay on the stack for
	// every channel of up to four dimensions (a grid has at most three).
	var buf [8]uint64
	words := buf[:0]
	for _, d := range c.Dims {
		words = append(words, uint64(d.Stride), uint64(d.Size))
	}
	return sim.Mix(words...)
}

// Contains reports whether every dimension of x already appears in c with
// identical stride and size.
func (c Channel) Contains(x Channel) bool {
	for _, xd := range x.Dims {
		found := false
		for _, cd := range c.Dims {
			if cd == xd {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Combine attempts to extend aggregate c with channel x so the union remains
// a cartesian set: after merging, dimensions sorted by stride must tile
// without interleaving (each next stride divisible by the span of the
// previous dimension). ok is false when the union is not cartesian, in which
// case c is returned unchanged.
func Combine(c, x Channel) (Channel, bool) {
	if x.Ranks() <= 1 {
		return c, true
	}
	if c.Contains(x) {
		return c, true
	}
	merged := append(append([]Dim(nil), c.Dims...), x.Dims...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Stride < merged[j].Stride })
	for i := 1; i < len(merged); i++ {
		span := merged[i-1].Stride * merged[i-1].Size
		if merged[i].Stride < span || merged[i].Stride%merged[i-1].Stride != 0 {
			return c, false
		}
	}
	off := c.Offset
	if len(c.Dims) == 0 || x.Offset < off {
		off = x.Offset
	}
	return Channel{Offset: off, Dims: merged}, true
}

// CoversWorld reports whether the aggregate's dimensions compose a complete
// cartesian basis of worldSize ranks: first stride 1, each subsequent stride
// equal to the span of the previous dimension, and total size equal to
// worldSize. The offset is ignored, matching the paper's offset-free channel
// hashing: symmetric fibers of a grid aggregate alike, and in an SPMD
// program every rank completes the same basis at the same collective.
func (c Channel) CoversWorld(worldSize int) bool {
	if worldSize == 1 {
		return true
	}
	if len(c.Dims) == 0 {
		return false
	}
	if c.Dims[0].Stride != 1 {
		return false
	}
	span := c.Dims[0].Stride * c.Dims[0].Size
	for _, d := range c.Dims[1:] {
		if d.Stride != span {
			return false
		}
		span *= d.Size
	}
	return span == worldSize
}

// String renders the channel for diagnostics, e.g. "@0[s1x4][s4x4]".
func (c Channel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%d", c.Offset)
	for _, d := range c.Dims {
		fmt.Fprintf(&b, "[s%dx%d]", d.Stride, d.Size)
	}
	return b.String()
}
