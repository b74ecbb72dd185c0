package channel

import (
	"testing"
	"testing/quick"
)

func TestFromGroupSingle(t *testing.T) {
	ch, ok := FromGroup([]int{5})
	if !ok || len(ch.Dims) != 0 {
		t.Fatalf("single-rank channel: %v ok=%v", ch, ok)
	}
	if ch.Ranks() != 1 {
		t.Errorf("Ranks = %d, want 1", ch.Ranks())
	}
}

func TestFromGroupRow(t *testing.T) {
	ch, ok := FromGroup([]int{8, 9, 10, 11})
	if !ok {
		t.Fatal("row group should have a channel")
	}
	if ch.Dims[0] != (Dim{Stride: 1, Size: 4}) {
		t.Errorf("row channel: %v", ch)
	}
}

func TestFromGroupColumnUnsorted(t *testing.T) {
	ch, ok := FromGroup([]int{14, 2, 6, 10})
	if !ok {
		t.Fatal("column group should have a channel")
	}
	if ch.Dims[0] != (Dim{Stride: 4, Size: 4}) {
		t.Errorf("column channel: %v", ch)
	}
}

func TestFromGroupNonUniform(t *testing.T) {
	if _, ok := FromGroup([]int{0, 1, 3}); ok {
		t.Error("non-arithmetic group should have no channel")
	}
	if _, ok := FromGroup(nil); ok {
		t.Error("empty group should have no channel")
	}
	if _, ok := FromGroup([]int{0, 0, 1}); ok {
		t.Error("duplicate ranks should have no channel")
	}
}

func TestCombineRowThenColumn(t *testing.T) {
	// 4x4 grid: row fiber stride 1 size 4; column fiber stride 4 size 4.
	row, _ := FromGroup([]int{0, 1, 2, 3})
	col, _ := FromGroup([]int{0, 4, 8, 12})
	agg, ok := Combine(row, col)
	if !ok {
		t.Fatal("row+column should combine")
	}
	if !agg.CoversWorld(16) {
		t.Errorf("row+column should cover 4x4 world: %v", agg)
	}
	if agg.CoversWorld(32) {
		t.Error("aggregate of 16 should not cover 32")
	}
}

func TestCombineThreeD(t *testing.T) {
	// 4x4x4 grid on 64 ranks.
	x, _ := FromGroup([]int{0, 1, 2, 3})
	y, _ := FromGroup([]int{0, 4, 8, 12})
	z, _ := FromGroup([]int{0, 16, 32, 48})
	agg, ok := Combine(x, y)
	if !ok {
		t.Fatal("x+y combine failed")
	}
	if agg.CoversWorld(64) {
		t.Error("x+y alone must not cover 64")
	}
	agg, ok = Combine(agg, z)
	if !ok {
		t.Fatal("xy+z combine failed")
	}
	if !agg.CoversWorld(64) {
		t.Errorf("x+y+z should cover 4^3 world: %v", agg)
	}
}

func TestCombineRejectsInterleaved(t *testing.T) {
	a, _ := FromGroup([]int{0, 1, 2, 3})
	b, _ := FromGroup([]int{0, 2, 4, 6}) // stride 2 interleaves with span 4
	if _, ok := Combine(a, b); ok {
		t.Error("interleaved channels must not combine")
	}
}

func TestCombineIdempotent(t *testing.T) {
	a, _ := FromGroup([]int{0, 1, 2, 3})
	agg, ok := Combine(a, a)
	if !ok {
		t.Fatal("combining a channel with itself should be a no-op")
	}
	if len(agg.Dims) != 1 {
		t.Errorf("self-combine duplicated dims: %v", agg)
	}
}

func TestCombineWithSingleton(t *testing.T) {
	a, _ := FromGroup([]int{0, 1, 2, 3})
	single, _ := FromGroup([]int{7})
	agg, ok := Combine(a, single)
	if !ok || len(agg.Dims) != 1 {
		t.Errorf("singleton should combine trivially: %v ok=%v", agg, ok)
	}
}

func TestCoversWorldDirect(t *testing.T) {
	world, _ := FromGroup([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if !world.CoversWorld(8) {
		t.Error("world channel should cover the world")
	}
	// Placement does not matter: a shifted fiber with a complete basis
	// still counts as covering.
	offsetRow, _ := FromGroup([]int{1, 2, 3, 4})
	if !offsetRow.CoversWorld(4) {
		t.Error("offset-free coverage should accept a shifted complete basis")
	}
	sparse, _ := FromGroup([]int{0, 4, 8, 12})
	if sparse.CoversWorld(4) {
		t.Error("stride-4 channel must not cover a 4-rank world")
	}
	var empty Channel
	if !empty.CoversWorld(1) {
		t.Error("empty channel covers a 1-rank world")
	}
	if empty.CoversWorld(2) {
		t.Error("empty channel cannot cover a 2-rank world")
	}
}

func TestContains(t *testing.T) {
	row, _ := FromGroup([]int{0, 1, 2, 3})
	col, _ := FromGroup([]int{0, 4, 8, 12})
	agg, _ := Combine(row, col)
	if !agg.Contains(row) || !agg.Contains(col) {
		t.Error("aggregate should contain its constituents")
	}
	z, _ := FromGroup([]int{0, 16, 32, 48})
	if agg.Contains(z) {
		t.Error("aggregate should not contain an un-merged channel")
	}
}

func TestGridDecompositionProperty(t *testing.T) {
	// For any 2D grid pr x pc, row fiber + column fiber covers the world.
	f := func(prRaw, pcRaw uint8) bool {
		pr := 1 + int(prRaw)%6
		pc := 1 + int(pcRaw)%6
		p := pr * pc
		// Row fiber of rank 0: {0..pc-1}; column fiber: {0, pc, 2pc, ...}.
		rowG := make([]int, pc)
		for i := range rowG {
			rowG[i] = i
		}
		colG := make([]int, pr)
		for i := range colG {
			colG[i] = i * pc
		}
		row, okR := FromGroup(rowG)
		col, okC := FromGroup(colG)
		if !okR || !okC {
			return false
		}
		agg, ok := Combine(row, col)
		if !ok {
			return false
		}
		return agg.CoversWorld(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	row, _ := FromGroup([]int{4, 5, 6, 7})
	if got := row.String(); got != "[s1x4]" {
		t.Errorf("String = %q", got)
	}
}
