package critter

import (
	"reflect"
	"runtime"
	"testing"

	"critter/internal/channel"
	"critter/internal/mpi"
	"critter/internal/sim"
)

// mustPanic fails t unless f panics with a message of its own, not a
// runtime error such as a nil dereference.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		switch e := recover().(type) {
		case nil:
			t.Errorf("%s did not panic", what)
		case runtime.Error:
			t.Errorf("%s panicked with a runtime error: %v", what, e)
		}
	}()
	f()
}

// TestCommFreeRefuses: Free panics on the profiler's world communicator, on
// a handle already freed, and on one with an Isend awaiting Waitall.
func TestCommFreeRefuses(t *testing.T) {
	runProfiled(t, 2, 0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		mustPanic(t, "Free of the world communicator", cc.Free)
		s := cc.Split(0, cc.Rank())
		s.Free()
		mustPanic(t, "a second Free", s.Free)

		s = cc.Split(0, cc.Rank())
		buf := make([]float64, 4)
		if s.Rank() == 0 {
			s.Isend(1, 3, buf)
			mustPanic(t, "Free with an Isend awaiting Waitall", s.Free)
		} else {
			s.Recv(0, 3, buf)
		}
		p.Waitall()
		s.Free()
	})
}

// TestSplitReusesHandleAndChannel: on a 4x2 grid, fibers freed in the
// reverse of split order come back to the same roles on the next grid of
// that shape, each handle with its channel (the same Dims array), and a grid
// of another shape gets the handles with the channels rebuilt for it: every
// fiber's channel is what channel.FromGroup derives from its group.
func TestSplitReusesHandleAndChannel(t *testing.T) {
	runProfiled(t, 8, 0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		grid := func(pc int) (row, col *Comm) {
			r, c := cc.Rank()/pc, cc.Rank()%pc
			row, col = cc.Split(r, c), cc.Split(c, r)
			for _, f := range []*Comm{row, col} {
				want, ok := channel.FromGroup(f.Raw().Group())
				if !f.chOK || !ok || !reflect.DeepEqual(f.ch, want) {
					t.Errorf("rank %d: a %d-column grid's fiber has channel %v (ok %v), want %v", cc.Rank(), pc, f.ch, f.chOK, want)
				}
			}
			return row, col
		}
		row, col := grid(2)
		rowDims, colDims := &row.ch.Dims[0], &col.ch.Dims[0]
		col.Free()
		row.Free()
		row2, col2 := grid(2)
		if row2 != row || col2 != col {
			t.Errorf("rank %d: the second grid did not get the first grid's fibers back in their roles", cc.Rank())
		} else if &row2.ch.Dims[0] != rowDims || &col2.ch.Dims[0] != colDims {
			t.Errorf("rank %d: a fiber of the same shape rebuilt its channel", cc.Rank())
		}
		col2.Free()
		row2.Free()
		row3, col3 := grid(4)
		col3.Free()
		row3.Free()
	})
}

// TestProfiledSplitAfterFreeAllocatesNoHandle is the mpi package's
// TestSplitAfterFreeAllocatesNoHandle through the profiler: past two
// Split/Free pairs, 64 more allocate only their user rounds' group slices,
// no profiled handle, mpi handle or channel.
func TestProfiledSplitAfterFreeAllocatesNoHandle(t *testing.T) {
	world := func(splits int) func() {
		return func() {
			w := mpi.NewWorld(4, testMachine(0), 1)
			if err := w.Run(func(c *mpi.Comm) {
				_, cc := New(c, Options{Policy: Conditional, Eps: 0})
				for range splits {
					cc.Split(cc.Rank()%2, 0).Free()
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const extra = 64
	base := testing.AllocsPerRun(20, world(2))
	more := testing.AllocsPerRun(20, world(2+extra))
	if perRound := (more - base) / extra; perRound > 1 {
		t.Errorf("a profiled Split/Free pair on 4 ranks allocates %.2f times, want at most 1 (the round's group)", perRound)
	}
}

// TestDescribesMatchesFromGroup: describes(ch, g) holds only when
// channel.FromGroup(g) returns ch with ok, over random groups (ascending
// progressions, shuffled and irregular ones) against random channels and
// against each group's own channel.
func TestDescribesMatchesFromGroup(t *testing.T) {
	rng := sim.NewRNG(11)
	for range 2000 {
		n, stride, start := 1+rng.Intn(6), 1+rng.Intn(4), rng.Intn(5)
		g := make([]int, n)
		for i := range g {
			g[i] = start + i*stride
		}
		switch rng.Intn(3) {
		case 1:
			i, j := rng.Intn(n), rng.Intn(n)
			g[i], g[j] = g[j], g[i]
		case 2:
			g[n-1] += rng.Intn(3)
		}
		want, ok := channel.FromGroup(g)
		var other channel.Channel
		if k := rng.Intn(3); k > 0 {
			other.Dims = []channel.Dim{{Stride: 1 + rng.Intn(4), Size: 1 + rng.Intn(6)}}
		}
		for _, ch := range []channel.Channel{want, other} {
			if describes(ch, g) && (!ok || !reflect.DeepEqual(ch, want)) {
				t.Fatalf("describes(%v, %v) holds, but FromGroup gives %v, %v", ch, g, want, ok)
			}
		}
		if ok && isProgression(g) && !describes(want, g) {
			t.Fatalf("describes(%v, %v) fails on the ascending group's own channel", want, g)
		}
	}
}

// isProgression reports whether g ascends by one positive stride.
func isProgression(g []int) bool {
	for i := 2; i < len(g); i++ {
		if g[i]-g[i-1] != g[1]-g[0] {
			return false
		}
	}
	return len(g) < 2 || g[1] > g[0]
}
