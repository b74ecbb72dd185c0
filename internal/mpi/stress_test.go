package mpi

import (
	"errors"
	"fmt"
	"testing"

	"critter/internal/sim"
)

// stressBody is a mixed workload over 64 ranks exercising every fabric at
// once: ring p2p (blocking and nonblocking), world
// collectives, typed piggyback messages, and communicator construction via
// Split and Dup, with per-rank virtual-time checksums returned for
// determinism comparison.
func stressBody(c *Comm, sum []float64) {
	p := c.Size()
	me := c.Rank()
	next, prev := (me+1)%p, (me+p-1)%p
	buf := make([]float64, 32)
	in := make([]float64, 32)
	lane := LaneOf[[2]int](c.World())

	rows := c.Split(me/8, me%8)
	defer func() { sum[me] += rows.Clock() }()
	dup := c.Dup()

	for iter := 0; iter < 20; iter++ {
		for i := range buf {
			buf[i] = float64(me*1000 + iter*32 + i)
		}
		// Ring traffic on the world communicator: evens send first.
		if me%2 == 0 {
			c.Send(next, iter, buf)
			c.Recv(prev, iter, in)
		} else {
			c.Recv(prev, iter, in)
			c.Send(next, iter, buf)
		}
		if want := float64(prev*1000 + iter*32); in[0] != want {
			panic(fmt.Sprintf("rank %d iter %d: ring payload %g, want %g", me, iter, in[0], want))
		}
		// Nonblocking sends on the dup'd communicator (distinct context).
		dup.Isend(next, 100+iter, buf)
		dup.Recv(prev, 100+iter, in)
		if want := float64(prev*1000 + iter*32); in[0] != want {
			panic(fmt.Sprintf("rank %d iter %d: isend payload %g, want %g", me, iter, in[0], want))
		}
		// Typed lane exchange with the pairwise partner (both sides must
		// call it), the profiler's piggyback shape.
		got := lane.Exchange(c, me^1, 200+iter, [2]int{me, iter})
		if got[0] != me^1 || got[1] != iter {
			panic(fmt.Sprintf("rank %d: typed exchange got %v", me, got))
		}
		// Row-fiber collectives plus a world barrier every few rounds.
		rows.Allreduce(buf, in, OpSum)
		if iter%5 == 0 {
			c.Barrier()
			c.Allgather(buf[:2], make([]float64, 2*p))
		}
	}
	sum[me] = c.Clock() + dup.Clock()
}

// pickOrder is a run-queue order for World.pick: FIFO (the default), LIFO,
// or a seeded shuffle that takes a uniformly random ready rank each time.
// Virtual time must not depend on which: a fixed FIFO schedule alone would
// hide any dependence on the order ranks run in.
type pickOrder struct {
	name string
	lifo bool
	seed uint64 // shuffle seed; 0 is no shuffle
}

// pickOrders are the orders the schedule-independence tests run under.
var pickOrders = []pickOrder{
	{name: "fifo"},
	{name: "lifo", lifo: true},
	{name: "shuffle-1", seed: 1},
	{name: "shuffle-2", seed: 0x5eed},
}

// world returns NewWorld(size, m, seed) picking its ready ranks in order o.
func (o pickOrder) world(size int, m sim.Machine, seed uint64) *World {
	w := NewWorld(size, m, seed)
	switch {
	case o.lifo:
		w.pick = func(n int) int { return n - 1 }
	case o.seed != 0:
		rng := sim.NewRNG(o.seed)
		w.pick = func(n int) int { return rng.Intn(n) }
	}
	return w
}

// TestStressDeterminism64 runs the mixed 64-rank workload under every pick
// order and demands bit-identical per-rank virtual clocks: the order in
// which the loop runs ready ranks must not leak into virtual time. It is
// also the deadlock rule's negative: with ranks waiting and being readied
// across every mailbox and round, no order may report a deadlock.
func TestStressDeterminism64(t *testing.T) {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.08
	var ref []float64
	for _, o := range pickOrders {
		t.Run(o.name, func(t *testing.T) {
			sums := make([]float64, 64)
			if err := o.world(64, m, 0xfeed).Run(func(c *Comm) { stressBody(c, sums) }); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = sums
				return
			}
			for r, v := range sums {
				if v != ref[r] {
					t.Fatalf("rank %d virtual time %v differs from %s's %v", r, v, pickOrders[0].name, ref[r])
				}
			}
		})
	}
}

// TestStressAbortFanout64 panics one rank mid-workload while 63 peers wait
// across mailboxes and rounds, under every pick order: every rank must
// unwind via ErrAborted (no deadlock) and Run must surface the original
// failure, the same verdict whatever the order.
func TestStressAbortFanout64(t *testing.T) {
	boom := errors.New("rank 17 exploded")
	var verdict string
	for _, o := range pickOrders {
		t.Run(o.name, func(t *testing.T) {
			sums := make([]float64, 64)
			err := o.world(64, sim.DefaultMachine(), 7).Run(func(c *Comm) {
				if c.Rank() == 17 {
					// Let peers get deep into waiting operations first.
					c.Barrier()
					panic(boom)
				}
				c.Barrier()
				stressBody(c, sums)
			})
			if err == nil {
				t.Fatal("Run returned nil after a rank panic")
			}
			if !errors.Is(err, boom) {
				t.Errorf("Run error %v does not wrap the original panic", err)
			}
			if verdict == "" {
				verdict = err.Error()
			} else if err.Error() != verdict {
				t.Errorf("Run error %q differs from %s's %q", err, pickOrders[0].name, verdict)
			}
		})
	}
}
