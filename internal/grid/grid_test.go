package grid

import (
	"testing"
	"testing/quick"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/sim"
)

func TestCyclicPartitionProperty(t *testing.T) {
	// Every item is owned by exactly one rank, local indices are dense,
	// and the per-rank counts sum to N.
	f := func(nRaw, bsRaw, pRaw uint8) bool {
		n := 1 + int(nRaw)%200
		bs := 1 + int(bsRaw)%16
		p := 1 + int(pRaw)%8
		d := Cyclic{N: n, BS: bs, P: p}
		total := 0
		for r := 0; r < p; r++ {
			total += d.LocalItems(r)
		}
		if total != n {
			return false
		}
		for i := 0; i < n; i++ {
			owner := d.OwnerOfItem(i)
			if owner < 0 || owner >= p {
				return false
			}
			li := d.LocalIndexOfItem(i)
			if li < 0 || li >= d.LocalItems(owner)+bs { // padded tail allowed
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicRoundTrip(t *testing.T) {
	d := Cyclic{N: 64, BS: 4, P: 3}
	for i := 0; i < 64; i++ {
		owner := d.OwnerOfItem(i)
		li := d.LocalIndexOfItem(i)
		if got := d.GlobalIndexOf(owner, li); got != i {
			t.Fatalf("round trip failed: item %d -> (rank %d, local %d) -> %d", i, owner, li, got)
		}
	}
}

func TestCyclicBlocks(t *testing.T) {
	d := Cyclic{N: 50, BS: 8, P: 2} // 7 blocks, last short (2 items)
	if d.NumBlocks() != 7 {
		t.Fatalf("NumBlocks = %d", d.NumBlocks())
	}
	if d.BlockSize(6) != 2 || d.BlockSize(0) != 8 {
		t.Errorf("block sizes: %d, %d", d.BlockSize(0), d.BlockSize(6))
	}
	if d.LocalBlocks(0) != 4 || d.LocalBlocks(1) != 3 {
		t.Errorf("local blocks: %d, %d", d.LocalBlocks(0), d.LocalBlocks(1))
	}
	if d.GlobalBlock(1, 2) != 5 {
		t.Errorf("GlobalBlock(1,2) = %d", d.GlobalBlock(1, 2))
	}
	if d.LocalBlock(5) != 2 {
		t.Errorf("LocalBlock(5) = %d", d.LocalBlock(5))
	}
}

func runWorld(t *testing.T, p int, body func(cc *critter.Comm)) {
	t.Helper()
	w := mpi.NewWorld(p, sim.DefaultMachine(), 5)
	if err := w.Run(func(c *mpi.Comm) {
		_, cc := critter.New(c, critter.Options{Policy: critter.Conditional, Eps: 0})
		body(cc)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DCoordinates(t *testing.T) {
	runWorld(t, 6, func(cc *critter.Comm) {
		g := New2D(cc, 2, 3)
		if g.MyRow != cc.Rank()/3 || g.MyCol != cc.Rank()%3 {
			t.Errorf("rank %d: coords (%d,%d)", cc.Rank(), g.MyRow, g.MyCol)
		}
		if g.Row.Size() != 3 || g.Col.Size() != 2 {
			t.Errorf("fiber sizes %d/%d", g.Row.Size(), g.Col.Size())
		}
		if g.Row.Rank() != g.MyCol || g.Col.Rank() != g.MyRow {
			t.Errorf("fiber ranks inconsistent")
		}
		if g.RankOf(g.MyRow, g.MyCol) != cc.Rank() {
			t.Error("RankOf does not invert coordinates")
		}
	})
}

func TestGrid2DFiberCommunication(t *testing.T) {
	runWorld(t, 6, func(cc *critter.Comm) {
		g := New2D(cc, 2, 3)
		sum := make([]float64, 1)
		g.Row.Allreduce([]float64{float64(g.MyCol)}, sum, mpi.OpSum)
		if sum[0] != 3 { // 0+1+2
			t.Errorf("row sum = %v", sum[0])
		}
		g.Col.Allreduce([]float64{float64(g.MyRow)}, sum, mpi.OpSum)
		if sum[0] != 1 { // 0+1
			t.Errorf("col sum = %v", sum[0])
		}
	})
}

func TestGrid2DSizeMismatchPanics(t *testing.T) {
	w := mpi.NewWorld(4, sim.DefaultMachine(), 5)
	err := w.Run(func(c *mpi.Comm) {
		_, cc := critter.New(c, critter.Options{})
		New2D(cc, 3, 3) // 9 != 4
	})
	if err == nil {
		t.Fatal("expected failure for mismatched grid")
	}
}

func TestGrid3DCoordinates(t *testing.T) {
	runWorld(t, 8, func(cc *critter.Comm) {
		g := New3D(cc, 2)
		if g.MyLayer != cc.Rank()/4 || g.LayerRank != cc.Rank()%4 {
			t.Errorf("rank %d: layer %d lr %d", cc.Rank(), g.MyLayer, g.LayerRank)
		}
		if g.Layer.Size() != 4 || g.Depth.Size() != 2 {
			t.Errorf("layer/depth sizes %d/%d", g.Layer.Size(), g.Depth.Size())
		}
		// Depth fiber rank order follows layer index.
		if g.Depth.Rank() != g.MyLayer {
			t.Errorf("depth rank %d != layer %d", g.Depth.Rank(), g.MyLayer)
		}
		// Communicate along depth: replication check pattern.
		buf := []float64{float64(g.LayerRank)}
		out := make([]float64, 1)
		g.Depth.Allreduce(buf, out, mpi.OpMax)
		if out[0] != float64(g.LayerRank) {
			t.Errorf("depth fiber mixed layer ranks: %v", out[0])
		}
	})
}

// TestReleaseHandsFibersBack: a grid built after Release of one of the same
// shape gets the released grid's fiber handles back, each in its own role,
// on a 2D and a 3D grid; a second Release of the same grid panics.
func TestReleaseHandsFibersBack(t *testing.T) {
	runWorld(t, 8, func(cc *critter.Comm) {
		g := New2D(cc, 4, 2)
		row, col := g.Row, g.Col
		g.Release()
		g = New2D(cc, 4, 2)
		if g.Row != row || g.Col != col {
			t.Errorf("rank %d: the next 2D grid's fibers are not the released grid's, role for role", cc.Rank())
		}
		g.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: a second Release did not panic", cc.Rank())
				}
			}()
			g.Release()
		}()

		g3 := New3D(cc, 2)
		layer, depth := g3.Layer, g3.Depth
		g3.Release()
		g3 = New3D(cc, 2)
		if g3.Layer != layer || g3.Depth != depth {
			t.Errorf("rank %d: the next 3D grid's fibers are not the released grid's, role for role", cc.Rank())
		}
		g3.Release()
	})
}
