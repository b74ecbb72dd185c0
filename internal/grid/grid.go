// Package grid provides the processor-grid and data-distribution layers the
// factorization libraries share: 2D grids with row/column fiber
// communicators, 3D grids with layer and depth fibers, and block-cyclic
// index arithmetic.
package grid

import (
	"fmt"

	"critter/internal/critter"
)

// Grid2D is one rank's view of a pr-by-pc process grid. Ranks are laid out
// row-major: rank = row*pc + col. Row and Col are the rank's fiber
// communicators (profiled, so their traffic is intercepted).
type Grid2D struct {
	All   *critter.Comm
	Row   *critter.Comm // my process row: pc ranks
	Col   *critter.Comm // my process column: pr ranks
	PR    int
	PC    int
	MyRow int
	MyCol int
}

// New2D builds the grid from a communicator of exactly pr*pc ranks,
// creating row and column fiber communicators via profiled splits.
func New2D(cc *critter.Comm, pr, pc int) *Grid2D {
	if cc.Size() != pr*pc {
		panic(fmt.Sprintf("grid: comm size %d != %dx%d", cc.Size(), pr, pc))
	}
	r := cc.Rank() / pc
	c := cc.Rank() % pc
	return &Grid2D{
		All:   cc,
		Row:   cc.Split(r, c),
		Col:   cc.Split(c, r),
		PR:    pr,
		PC:    pc,
		MyRow: r,
		MyCol: c,
	}
}

// Release frees the grid's fiber communicators (critter.Comm.Free), Col and
// then Row, the reverse of the order New2D split them: the next grid built
// on the same communicator takes its handles back last-freed first, so a
// recurring grid gets its own fibers, channels included. All stays usable;
// the grid does not.
func (g *Grid2D) Release() {
	g.Col.Free()
	g.Row.Free()
	g.Row, g.Col = nil, nil
}

// RankOf returns the grid rank owning grid coordinates (row, col).
func (g *Grid2D) RankOf(row, col int) int { return row*g.PC + col }

// Grid3D is one rank's view of a c-by-c-by-c process grid. Ranks are laid
// out layer-major: rank = layer*c*c + layerRank. Each layer is a flat group
// of c*c ranks; Depth connects the same layer position across layers.
type Grid3D struct {
	All       *critter.Comm
	Layer     *critter.Comm // my layer: c*c ranks
	Depth     *critter.Comm // my depth fiber: c ranks
	C         int
	MyLayer   int // depth coordinate
	LayerRank int // position within the layer
}

// New3D builds a cubic grid from a communicator of exactly c*c*c ranks.
func New3D(cc *critter.Comm, c int) *Grid3D {
	if cc.Size() != c*c*c {
		panic(fmt.Sprintf("grid: comm size %d != %d^3", cc.Size(), c))
	}
	layer := cc.Rank() / (c * c)
	lr := cc.Rank() % (c * c)
	return &Grid3D{
		All:       cc,
		Layer:     cc.Split(layer, lr),
		Depth:     cc.Split(lr, layer),
		C:         c,
		MyLayer:   layer,
		LayerRank: lr,
	}
}

// Release frees the grid's fibers, Depth and then Layer, as Grid2D.Release
// does.
func (g *Grid3D) Release() {
	g.Depth.Free()
	g.Layer.Free()
	g.Layer, g.Depth = nil, nil
}

// Cyclic describes a 1D block-cyclic distribution of n items in blocks of
// size bs over p ranks.
type Cyclic struct {
	N  int // global items
	BS int // block size
	P  int // ranks
}

// NumBlocks returns the number of global blocks (the last may be partial).
func (d Cyclic) NumBlocks() int { return (d.N + d.BS - 1) / d.BS }

// Owner returns the rank owning global block b.
func (d Cyclic) Owner(b int) int { return b % d.P }

// BlockSize returns the size of global block b (the last may be short).
func (d Cyclic) BlockSize(b int) int {
	if s := d.N - b*d.BS; s < d.BS {
		return s
	}
	return d.BS
}

// LocalBlocks returns the number of blocks owned by rank r.
func (d Cyclic) LocalBlocks(r int) int {
	nb := d.NumBlocks()
	full := nb / d.P
	if r < nb%d.P {
		full++
	}
	return full
}

// LocalItems returns the number of items owned by rank r.
func (d Cyclic) LocalItems(r int) int {
	total := 0
	for lb := 0; lb < d.LocalBlocks(r); lb++ {
		total += d.BlockSize(d.GlobalBlock(r, lb))
	}
	return total
}

// GlobalBlock returns the global block index of rank r's lb-th local block.
func (d Cyclic) GlobalBlock(r, lb int) int { return lb*d.P + r }

// LocalBlock returns which local slot global block b occupies on its owner.
func (d Cyclic) LocalBlock(b int) int { return b / d.P }

// OwnerOfItem returns the rank owning global item i.
func (d Cyclic) OwnerOfItem(i int) int { return d.Owner(i / d.BS) }

// LocalIndexOfItem returns the local item offset of global item i on its
// owning rank.
func (d Cyclic) LocalIndexOfItem(i int) int {
	b := i / d.BS
	return d.LocalBlock(b)*d.BS + i%d.BS
}

// GlobalIndexOf returns the global item index of rank r's local item li
// (assuming full blocks; callers use it only within valid ranges).
func (d Cyclic) GlobalIndexOf(r, li int) int {
	lb := li / d.BS
	return d.GlobalBlock(r, lb)*d.BS + li%d.BS
}
