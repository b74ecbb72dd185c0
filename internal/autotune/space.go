package autotune

// A configuration space with named, typed dimensions: strategies can decode
// a flat configuration index into per-dimension coordinates and move along
// individual axes, and reports can label configurations without the study
// supplying a bespoke formatter.

import (
	"fmt"
	"strings"
)

// Dim is one named axis of a configuration space. Values holds the labels
// of the points along the axis, in axis order; the axis length is
// len(Values).
type Dim struct {
	Name   string
	Values []string
}

// Size returns the number of points along the axis.
func (d Dim) Size() int { return len(d.Values) }

// IntsDim builds a dimension whose points are integers (block sizes, tile
// sizes, lookahead depths, ...).
func IntsDim(name string, vals ...int) Dim {
	d := Dim{Name: name, Values: make([]string, len(vals))}
	for i, v := range vals {
		d.Values[i] = fmt.Sprintf("%d", v)
	}
	return d
}

// GridsDim builds a dimension whose points are 2D processor-grid shapes,
// labeled "PRxPC".
func GridsDim(name string, grids ...[2]int) Dim {
	d := Dim{Name: name, Values: make([]string, len(grids))}
	for i, g := range grids {
		d.Values[i] = fmt.Sprintf("%dx%d", g[0], g[1])
	}
	return d
}

// Space is the cartesian product of its dimensions. Configurations are
// indexed 0..Size()-1 in mixed-radix order with Dims[0] varying fastest,
// matching the paper's flat config numbering (e.g. CAPITAL's
// b = b0*2^(v%5), strategy = 1 + v/5 is the space [b-dim of radix 5,
// strategy-dim of radix 3]).
//
// The zero value is an empty space of size 0, which no study can be run
// with (Study.Validate).
type Space struct {
	Dims []Dim
}

// NewSpace builds a space from its dimensions, fastest-varying first.
func NewSpace(dims ...Dim) Space { return Space{Dims: dims} }

// Size returns the number of configurations: the product of the dimension
// lengths, or 0 for the empty space.
func (s Space) Size() int {
	if len(s.Dims) == 0 {
		return 0
	}
	n := 1
	for _, d := range s.Dims {
		n *= d.Size()
	}
	return n
}

// Decode splits a flat configuration index into per-dimension coordinates,
// one per dimension in Dims order. The index must lie in [0, Size()).
func (s Space) Decode(v int) []int {
	coords := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		coords[i] = v % d.Size()
		v /= d.Size()
	}
	return coords
}

// Encode is the inverse of Decode: it folds per-dimension coordinates back
// into the flat configuration index.
func (s Space) Encode(coords []int) int {
	v, stride := 0, 1
	for i, d := range s.Dims {
		v += coords[i] * stride
		stride *= d.Size()
	}
	return v
}

// Axis returns the index of the dimension with the given name, or -1.
func (s Space) Axis(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Value returns the label of configuration v's point along the named
// dimension ("" if the dimension does not exist).
func (s Space) Value(v int, name string) string {
	i := s.Axis(name)
	if i < 0 {
		return ""
	}
	return s.Dims[i].Values[s.Decode(v)[i]]
}

// Describe labels configuration v as "name=value" pairs joined by spaces,
// in Dims order.
func (s Space) Describe(v int) string {
	coords := s.Decode(v)
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.Name + "=" + d.Values[coords[i]]
	}
	return strings.Join(parts, " ")
}
