package mpi

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"critter/internal/sim"
)

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestFreeRefusesWorldAndDoubleFree: Free panics on the world communicator
// Run hands a rank and on a handle already freed; a Dup of the world
// communicator is freed like any split.
func TestFreeRefusesWorldAndDoubleFree(t *testing.T) {
	run(t, 2, func(c *Comm) {
		mustPanic(t, "Free of the world communicator", c.Free)
		d := c.Dup()
		d.Free()
		mustPanic(t, "a second Free of a Dup", d.Free)
		s := c.Split(0, c.Rank())
		s.Free()
		mustPanic(t, "a second Free of a split", s.Free)
	})
}

// TestFreedHandleHasOneOwner: over a seeded sequence of Splits, Dups,
// SplitAs and Frees on 4 ranks, every live handle is a distinct object and
// still holds the group, rank and context its communicator was made with,
// whatever handle it was made on; and a Split after a Free returns the
// handle freed last.
func TestFreedHandleHasOneOwner(t *testing.T) {
	type made struct {
		c     *Comm
		group []int
		rank  int
		ctx   uint64
	}
	run(t, 4, func(c *Comm) {
		rng := sim.NewRNG(7) // the same on every rank: splits are collective
		var live []made
		check := func(step int) {
			for i, m := range live {
				for _, o := range live[i+1:] {
					if m.c == o.c {
						t.Fatalf("rank %d step %d: one handle has two live owners", c.Rank(), step)
					}
				}
				if !slices.Equal(m.c.Group(), m.group) || m.c.Rank() != m.rank || m.c.ctx != m.ctx {
					t.Fatalf("rank %d step %d: a live handle changed under its owner", c.Rank(), step)
				}
			}
		}
		for step := range 200 {
			var nc *Comm
			switch op := rng.Intn(4); {
			case op == 0 && len(live) > 0:
				i := rng.Intn(len(live))
				live[i].c.Free()
				live = slices.Delete(live, i, i+1)
			case op == 1:
				nc = c.Dup()
			case op == 2 && len(live) > 0:
				// SplitAs on a live Dup, fed a Split of the world it twins.
				d := c.Dup()
				sib := c.Split(c.Rank()%2, -c.Rank())
				nc = d.SplitAs(sib, c.Rank()%2)
				live = append(live, made{sib, slices.Clone(sib.Group()), sib.Rank(), sib.ctx})
				d.Free()
			default:
				nc = c.Split(rng.Intn(3), c.Rank())
			}
			if nc != nil {
				live = append(live, made{nc, slices.Clone(nc.Group()), nc.Rank(), nc.ctx})
			}
			check(step)
		}
		s := c.Split(0, 0)
		s.Free()
		if again := c.Split(1, 0); again != s {
			t.Errorf("rank %d: the Split after a Free made a new handle", c.Rank())
		}
	})
}

// TestSplitAfterFreeAllocatesNoHandle: on a 4-rank world, a Split whose
// rank has freed a handle allocates none. Past two Split/Free pairs (which
// grow the round, the freelists and the last arriver's scratch), 64 more
// allocate only their rounds' group slices, one per round shared by every
// member, not one handle per rank.
func TestSplitAfterFreeAllocatesNoHandle(t *testing.T) {
	world := func(splits int) func() {
		return func() {
			w := NewWorld(4, quietMachine(), 1)
			if err := w.Run(func(c *Comm) {
				for range splits {
					c.Split(c.Rank()%2, 0).Free()
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
		t.Errorf("a Split/Free pair on 4 ranks allocates %.2f times, want at most 1 (the round's group)", perRound)
	}
}

// sendQueued posts n int messages from rank 0 to rank 1 of c's world before
// rank 1 receives any, so rank 1's mailbox queue holds n at once, and has
// rank 1 receive them in order, checking each is want+i. It returns, on
// rank 1, the queue's backing array after the receives.
func sendQueued(t *testing.T, c *Comm, n, want int) *fmsg[int] {
	lane := LaneOf[int](c.World())
	if c.Rank() == 0 {
		for i := range n {
			lane.Send(c, 1, 0, want+i)
		}
		c.Barrier()
		return nil
	}
	c.Barrier()
	for i := range n {
		if got := lane.Recv(c, 0, 0); got != want+i {
			t.Errorf("rank 1 received %d, want %d", got, want+i)
		}
	}
	q := lane.f.boxes[1].queue
	return &q[:1][0]
}

// TestMailboxesOutliveTheirWorld: a world that ends normally gives its
// mailbox arrays, grown queues included, to its pool, and the next world on
// the pool posts into them without regrowing a queue; a world that aborts
// gives back nothing.
func TestMailboxesOutliveTheirWorld(t *testing.T) {
	pool := NewBufPool()
	var arrays [2]*fmsg[int]
	for i := range arrays {
		w := NewWorld(2, quietMachine(), 1)
		w.SetBufPool(pool)
		if err := w.Run(func(c *Comm) {
			if a := sendQueued(t, c, 6, 10*i); a != nil {
				arrays[i] = a
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if arrays[1] != arrays[0] {
		t.Error("the second world's posts regrew the queue the first world grew")
	}

	w := NewWorld(2, quietMachine(), 1)
	w.SetBufPool(pool)
	if err := w.Run(func(c *Comm) {
		sendQueued(t, c, 6, 0)
		if c.Rank() == 1 {
			panic("abort")
		}
	}); err == nil {
		t.Fatal("a panicking world ran without error")
	}
	if got := pool.takeBoxes(reflect.TypeFor[int](), 1); got != nil {
		t.Error("an aborted world gave its mailboxes back to the pool")
	}
}

// TestWorldsShareNoMailboxes runs two worlds at once on one pool that holds
// one mailbox array either could take. Each world's rank 1 holds its queued
// messages while the other world's rank 1 holds its own, then receives
// them: each must read its own world's messages, and under -race a shared
// array is also a data race. The pool keeps one of the two arrays.
func TestWorldsShareNoMailboxes(t *testing.T) {
	pool := NewBufPool()
	w := NewWorld(2, quietMachine(), 1)
	w.SetBufPool(pool)
	if err := w.Run(func(c *Comm) { sendQueued(t, c, 6, 0) }); err != nil {
		t.Fatal(err)
	}
	ready := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewWorld(2, quietMachine(), 1)
			w.SetBufPool(pool)
			errs[i] = w.Run(func(c *Comm) {
				lane := LaneOf[int](c.World())
				if c.Rank() == 0 {
					for k := range 6 {
						lane.Send(c, 1, 0, 100*i+k)
					}
					return
				}
				close(ready[i])
				<-ready[1-i]
				for k := range 6 {
					if got := lane.Recv(c, 0, 0); got != 100*i+k {
						t.Errorf("world %d received %d, want %d", i, got, 100*i+k)
					}
				}
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pool.takeBoxes(reflect.TypeFor[int](), 2) == nil {
		t.Error("neither world gave its mailboxes back")
	}
}
