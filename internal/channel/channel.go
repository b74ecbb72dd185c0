// Package channel implements the communication-channel signatures of the
// paper's path propagation mechanism (Figure 2, Section III-B).
//
// A channel identifies a communicator by the (stride, size) of each
// cartesian dimension it spans in world-rank space. Fiber and slice
// communicators of processor grids — the only communicators dense linear
// algebra algorithms build — always have such signatures. The aggregate
// channel of the eager policy is a kernel's coverage: the union, grown by
// Combine, of the channels its pooled statistics have travelled over.
// Combine refuses any union that is not cartesian; that check subsumes the
// paper's lookup of a registered aggregate, so no registry is kept. The
// kernel is switched off once its coverage composes a cartesian basis of
// the whole grid (CoversWorld), so every rank agrees on the skip decision.
package channel

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Dim is one cartesian dimension of a channel: Size ranks separated by
// Stride in world-rank space.
type Dim struct {
	Stride int
	Size   int
}

// Channel is the placement signature of a communicator, or a kernel's
// coverage: the aggregate of the channels it has been pooled over. Dims are
// kept sorted by stride. The zero Channel describes a single rank (the empty
// aggregate). Where a channel sits in the world does not matter: symmetric
// fibers of a grid share one signature.
type Channel struct {
	Dims []Dim
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
		slices.Sort(sorted)
	}
	if len(sorted) == 1 {
		return Channel{}, true
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
	return Channel{Dims: []Dim{{Stride: d, Size: len(sorted)}}}, true
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
	slices.SortFunc(merged, func(a, b Dim) int { return cmp.Compare(a.Stride, b.Stride) })
	for i := 1; i < len(merged); i++ {
		span := merged[i-1].Stride * merged[i-1].Size
		if merged[i].Stride < span || merged[i].Stride%merged[i-1].Stride != 0 {
			return c, false
		}
	}
	return Channel{Dims: merged}, true
}

// CoversWorld reports whether the aggregate's dimensions compose a complete
// cartesian basis of worldSize ranks: first stride 1, each subsequent stride
// equal to the span of the previous dimension, and total size equal to
// worldSize. In an SPMD program every rank completes the same basis at the
// same collective.
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

// String renders the channel for diagnostics, e.g. "[s1x4][s4x4]".
func (c Channel) String() string {
	var b strings.Builder
	for _, d := range c.Dims {
		fmt.Fprintf(&b, "[s%dx%d]", d.Stride, d.Size)
	}
	return b.String()
}
