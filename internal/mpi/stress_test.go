package mpi

import (
	"errors"
	"fmt"
	"testing"

	"critter/internal/sim"
)

// stressBody is a mixed workload over 64 ranks exercising every lock shard
// of the fabric at once: ring p2p (blocking and nonblocking), world
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

// TestStressDeterminism64 runs the mixed 64-rank workload three times and
// demands bit-identical per-rank virtual clocks: the sharded per-mailbox
// locks and round shards must not leak goroutine scheduling into virtual
// time. Run under -race in CI, this is also the fabric's data-race stress
// and the deadlock accounting's negative: with ranks parking and being
// unparked across every mailbox and shard, no run may report a deadlock.
func TestStressDeterminism64(t *testing.T) {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.08
	var ref []float64
	for run := 0; run < 3; run++ {
		sums := make([]float64, 64)
		w := NewWorld(64, m, 0xfeed)
		if err := w.Run(func(c *Comm) { stressBody(c, sums) }); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ref == nil {
			ref = sums
			continue
		}
		for r, v := range sums {
			if v != ref[r] {
				t.Fatalf("run %d: rank %d virtual time %v differs from run 0's %v", run, r, v, ref[r])
			}
		}
	}
}

// TestStressAbortFanout64 panics one rank mid-workload while 63 peers are
// blocked across mailboxes and round shards; every rank must unwind via
// ErrAborted (no deadlock) and Run must surface the original failure.
func TestStressAbortFanout64(t *testing.T) {
	boom := errors.New("rank 17 exploded")
	w := NewWorld(64, sim.DefaultMachine(), 7)
	done := make(chan error, 1)
	go func() {
		sums := make([]float64, 64)
		done <- w.Run(func(c *Comm) {
			if c.Rank() == 17 {
				// Let peers get deep into blocking operations first.
				c.Barrier()
				panic(boom)
			}
			c.Barrier()
			stressBody(c, sums)
		})
	}()
	err := <-done
	if err == nil {
		t.Fatal("Run returned nil after a rank panic")
	}
	if !errors.Is(err, boom) {
		t.Errorf("Run error %v does not wrap the original panic", err)
	}
}
