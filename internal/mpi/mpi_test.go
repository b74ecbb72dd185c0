package mpi

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"critter/internal/sim"
)

func quietMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0
	return m
}

func run(t *testing.T, p int, body func(c *Comm)) {
	t.Helper()
	w := NewWorld(p, quietMachine(), 1)
	if err := w.Run(body); err != nil {
		t.Fatalf("world run: %v", err)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewWorld(0, quietMachine(), 1)
}

func TestRanksAndSize(t *testing.T) {
	seen := make([]bool, 8)
	var mu sync.Mutex
	run(t, 8, func(c *Comm) {
		if c.Size() != 8 || c.WorldSize() != 8 {
			t.Errorf("size = %d/%d, want 8", c.Size(), c.WorldSize())
		}
		if c.Rank() != c.WorldRank() {
			t.Errorf("world comm rank mismatch: %d vs %d", c.Rank(), c.WorldRank())
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestSendRecvValue(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
			if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("recv got %v", buf)
			}
		}
	})
}

func TestSendBufferReuseSafe(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the in-flight message
			c.Send(1, 1, buf)
		} else {
			b := make([]float64, 1)
			c.Recv(0, 0, b)
			if b[0] != 42 {
				t.Errorf("first message corrupted by sender reuse: %v", b[0])
			}
			c.Recv(0, 1, b)
			if b[0] != -1 {
				t.Errorf("second message wrong: %v", b[0])
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{5})
			c.Send(1, 9, []float64{9})
		} else {
			b := make([]float64, 1)
			// Receive out of send order by tag.
			c.Recv(0, 9, b)
			if b[0] != 9 {
				t.Errorf("tag 9 got %v", b[0])
			}
			c.Recv(0, 5, b)
			if b[0] != 5 {
				t.Errorf("tag 5 got %v", b[0])
			}
		}
	})
}

func TestFIFOAmongEqualTags(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			b := make([]float64, 1)
			for i := 0; i < 10; i++ {
				c.Recv(0, 3, b)
				if b[0] != float64(i) {
					t.Errorf("message %d out of order: got %v", i, b[0])
				}
			}
		}
	})
}

func TestRecvLengthMismatchPanics(t *testing.T) {
	w := NewWorld(2, quietMachine(), 1)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2})
		} else {
			c.Recv(0, 0, make([]float64, 3))
		}
	})
	if err == nil {
		t.Fatal("expected error from length mismatch")
	}
}

func TestAbortUnblocksPeers(t *testing.T) {
	w := NewWorld(3, quietMachine(), 1)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("deliberate failure")
		}
		// These would deadlock forever without abort propagation.
		c.Recv(0, 99, make([]float64, 1))
	})
	if err == nil {
		t.Fatal("expected error from aborted world")
	}
}

// TestBufferedSendsNoDeadlock: both ranks send before they receive. Sends
// are buffered, so the pairwise exchange cannot deadlock.
func TestBufferedSendsNoDeadlock(t *testing.T) {
	run(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		out := []float64{float64(c.Rank())}
		in := make([]float64, 1)
		c.Send(peer, 0, out)
		c.Recv(peer, 0, in)
		if in[0] != float64(peer) {
			t.Errorf("exchange got %v, want %d", in[0], peer)
		}
	})
}

// TestIsendRecv: an Isend's payload is captured at issue, so the sender may
// overwrite its buffer at once and the receiver still gets what was sent.
func TestIsendRecv(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{3.14}
			c.Isend(1, 4, buf)
			buf[0] = -1
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 4, buf)
			if buf[0] != 3.14 {
				t.Errorf("recv got %v, want 3.14", buf[0])
			}
		}
	})
}

// TestIsendTagMatching: a receive takes the message with its tag whatever
// order the tags were sent in, and messages under one tag land in the order
// they were sent.
func TestIsendTagMatching(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Isend(1, i, []float64{float64(i * i)})
			}
			for i := 0; i < 3; i++ {
				c.Isend(1, 9, []float64{float64(100 + i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 4; i >= 0; i-- {
				c.Recv(0, i, buf)
				if buf[0] != float64(i*i) {
					t.Errorf("tag %d got %v, want %d", i, buf[0], i*i)
				}
			}
			for i := 0; i < 3; i++ {
				c.Recv(0, 9, buf)
				if buf[0] != float64(100+i) {
					t.Errorf("message %d under tag 9 got %v, want %d", i, buf[0], 100+i)
				}
			}
		}
	})
}

func TestBcast(t *testing.T) {
	run(t, 5, func(c *Comm) {
		buf := make([]float64, 4)
		if c.Rank() == 2 {
			for i := range buf {
				buf[i] = float64(10 + i)
			}
		}
		c.Bcast(2, buf)
		for i := range buf {
			if buf[i] != float64(10+i) {
				t.Errorf("rank %d bcast[%d] = %v", c.Rank(), i, buf[i])
			}
		}
	})
}

// TestReduceAndAllreduce checks each reduction operator through Allreduce.
func TestReduceAndAllreduce(t *testing.T) {
	run(t, 4, func(c *Comm) {
		in := []float64{float64(c.Rank()), 1}
		all := make([]float64, 2)
		c.Allreduce(in, all, OpSum)
		if all[0] != 6 || all[1] != 4 { // 0+1+2+3, 1*4
			t.Errorf("allreduce sum got %v", all)
		}
		c.Allreduce(in, all, OpMax)
		if all[0] != 3 || all[1] != 1 {
			t.Errorf("allreduce max got %v", all)
		}
		c.Allreduce(in, all, OpMin)
		if all[0] != 0 || all[1] != 1 {
			t.Errorf("allreduce min got %v", all)
		}
	})
}

func TestAllgatherGatherScatter(t *testing.T) {
	run(t, 4, func(c *Comm) {
		in := []float64{float64(c.Rank() * 100), float64(c.Rank()*100 + 1)}
		out := make([]float64, 8)
		c.Allgather(in, out)
		for r := 0; r < 4; r++ {
			if out[2*r] != float64(r*100) || out[2*r+1] != float64(r*100+1) {
				t.Errorf("allgather segment %d wrong: %v", r, out[2*r:2*r+2])
			}
		}
		got := make([]float64, 8)
		c.Gather(3, in, got)
		if c.Rank() == 3 {
			for r := 0; r < 4; r++ {
				if got[2*r] != float64(r*100) {
					t.Errorf("gather segment %d wrong", r)
				}
			}
		}
		var full []float64
		if c.Rank() == 1 {
			full = make([]float64, 8)
			for i := range full {
				full[i] = float64(i)
			}
		}
		seg := make([]float64, 2)
		c.Scatter(1, full, seg)
		if seg[0] != float64(2*c.Rank()) || seg[1] != float64(2*c.Rank()+1) {
			t.Errorf("scatter rank %d got %v", c.Rank(), seg)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	run(t, 4, func(c *Comm) {
		// Skew the clocks, then barrier: all clocks must agree afterwards.
		c.AdvanceClock(float64(c.Rank()) * 0.25)
		c.Barrier()
		after := c.Clock()
		all := make([]float64, 1)
		c.Allreduce([]float64{after}, all, OpMax)
		if math.Abs(all[0]-after) > 1e-12 {
			t.Errorf("rank %d clock %g differs from max %g after barrier", c.Rank(), after, all[0])
		}
		if after < 0.75 {
			t.Errorf("barrier completed at %g, before slowest rank's 0.75", after)
		}
	})
}

func TestVirtualTimeCausality(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.AdvanceClock(1.0) // sender is busy until t=1
			c.Send(1, 0, make([]float64, 1000))
		} else {
			before := c.Clock()
			if before != 0 {
				t.Errorf("receiver should start at 0, got %g", before)
			}
			c.Recv(0, 0, make([]float64, 1000))
			// Message cannot arrive before the sender sent it at t >= 1.
			if c.Clock() < 1.0 {
				t.Errorf("receiver clock %g violates causality (send at t>=1)", c.Clock())
			}
		}
	})
}

func TestDeterministicVirtualTime(t *testing.T) {
	final := func() []float64 {
		m := sim.DefaultMachine() // with noise
		w := NewWorld(4, m, 12345)
		out := make([]float64, 4)
		var mu sync.Mutex
		if err := w.Run(func(c *Comm) {
			buf := make([]float64, 256)
			for iter := 0; iter < 10; iter++ {
				c.Bcast(iter%4, buf)
				peer := (c.Rank() + 1) % 4
				prev := (c.Rank() + 3) % 4
				c.Send(peer, iter, buf[:16])
				c.Recv(prev, iter, buf[:16])
				c.Compute(1e5)
			}
			mu.Lock()
			out[c.Rank()] = c.Clock()
			mu.Unlock()
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := final(), final()
	for r := range a {
		if a[r] != b[r] {
			t.Errorf("rank %d virtual time not deterministic: %g vs %g", r, a[r], b[r])
		}
	}
}

func TestSplitRowsAndCols(t *testing.T) {
	// 2x3 grid: color by row, key by col.
	run(t, 6, func(c *Comm) {
		row, col := c.Rank()/3, c.Rank()%3
		rowComm := c.Split(row, col)
		if rowComm.Size() != 3 {
			t.Errorf("row comm size %d, want 3", rowComm.Size())
		}
		if rowComm.Rank() != col {
			t.Errorf("row comm rank %d, want %d", rowComm.Rank(), col)
		}
		// Row communicator group = consecutive world ranks.
		if g, want := rowComm.Group(), []int{row * 3, row*3 + 1, row*3 + 2}; !slices.Equal(g, want) {
			t.Errorf("row comm group = %v, want %v", g, want)
		}
		colComm := c.Split(col, row)
		if colComm.Size() != 2 || colComm.Rank() != row {
			t.Errorf("col comm size/rank = %d/%d", colComm.Size(), colComm.Rank())
		}
		if g, want := colComm.Group(), []int{col, col + 3}; !slices.Equal(g, want) {
			t.Errorf("col comm group = %v, want %v", g, want)
		}
		// Communicate within the split comms to verify isolation.
		sum := make([]float64, 1)
		rowComm.Allreduce([]float64{float64(c.Rank())}, sum, OpSum)
		want := float64(row*3 + row*3 + 1 + row*3 + 2)
		if sum[0] != want {
			t.Errorf("row allreduce got %v want %v", sum[0], want)
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	run(t, 4, func(c *Comm) {
		color := 0
		if c.Rank()%2 == 1 {
			color = -1
		}
		nc := c.Split(color, c.Rank())
		if c.Rank()%2 == 1 {
			if nc != nil {
				t.Error("negative color should yield nil comm")
			}
			return
		}
		if nc.Size() != 2 {
			t.Errorf("split size %d, want 2", nc.Size())
		}
	})
}

func TestDupIsolation(t *testing.T) {
	run(t, 2, func(c *Comm) {
		d := c.Dup()
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			d.Send(1, 0, []float64{2})
		} else {
			b := make([]float64, 1)
			// Receive on dup first: must get the dup message, not the
			// world message with the same (src, tag).
			d.Recv(0, 0, b)
			if b[0] != 2 {
				t.Errorf("dup recv got %v, want 2", b[0])
			}
			c.Recv(0, 0, b)
			if b[0] != 1 {
				t.Errorf("world recv got %v, want 1", b[0])
			}
		}
	})
}

func TestAllreduceMsg(t *testing.T) {
	run(t, 4, func(c *Comm) {
		type profile struct{ maxT float64 }
		res := AllreduceMsg(c, profile{float64(c.Rank())}, func(a, b profile) profile {
			if b.maxT > a.maxT {
				return b
			}
			return a
		})
		if res.maxT != 3 {
			t.Errorf("allreduce-msg got %v, want 3", res)
		}
	})
}

// TestBcastMsg: every rank receives rank 0's payload, and the other ranks'
// payloads are ignored.
func TestBcastMsg(t *testing.T) {
	run(t, 3, func(c *Comm) {
		if got := BcastMsg(c, 11+c.Rank()); got != 11 {
			t.Errorf("rank %d received %d, want rank 0's 11", c.Rank(), got)
		}
	})
}

func TestExchangeMsg(t *testing.T) {
	run(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		got := LaneOf[string](c.World()).Exchange(c, peer, 0, fmt.Sprintf("from-%d", c.Rank()))
		want := fmt.Sprintf("from-%d", peer)
		if got != want {
			t.Errorf("exchange got %q want %q", got, want)
		}
	})
}

// TestMatchReleasesPayload pins the mailbox's backing array after a matched
// receive: the vacated slot must not keep the delivered payload alive (on
// the data plane that buffer may already be back in the BufPool). It looks
// from the receiving rank, before Run empties the mailboxes for the pool.
func TestMatchReleasesPayload(t *testing.T) {
	w := NewWorld(2, quietMachine(), 1)
	if err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
			return
		}
		c.Recv(0, 0, make([]float64, 3))
		q := w.dataFab.boxes[1].queue
		if len(q) != 0 || cap(q) == 0 {
			t.Errorf("mailbox queue len %d cap %d after one matched receive", len(q), cap(q))
			return
		}
		if vacated := q[:1][0]; vacated.payload != nil {
			t.Errorf("vacated tail slot still holds payload %v", vacated.payload)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupStrideNonUniform(t *testing.T) {
	run(t, 4, func(c *Comm) {
		// Group {0,1,3} is not an arithmetic progression.
		color := 0
		if c.Rank() == 2 {
			color = 1
		}
		nc := c.Split(color, c.Rank())
		if c.Rank() == 2 {
			return
		}
		if g := nc.Group(); !slices.Equal(g, []int{0, 1, 3}) {
			t.Errorf("non-uniform group = %v, want [0 1 3]", g)
		}
	})
}

func TestComputeAdvancesClock(t *testing.T) {
	run(t, 1, func(c *Comm) {
		before := c.Clock()
		dt := c.Compute(1e6)
		if dt <= 0 {
			t.Errorf("compute duration %g", dt)
		}
		if c.Clock()-before != dt {
			t.Errorf("clock advance %g != returned %g", c.Clock()-before, dt)
		}
	})
}

func TestCollectiveCostGrowsWithSize(t *testing.T) {
	// Time a bcast of n bytes vs 100n bytes: bigger must take longer.
	duration := func(n int) float64 {
		w := NewWorld(4, quietMachine(), 1)
		var d float64
		var mu sync.Mutex
		if err := w.Run(func(c *Comm) {
			buf := make([]float64, n)
			dt := c.Bcast(0, buf)
			if c.Rank() == 0 {
				mu.Lock()
				d = dt
				mu.Unlock()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	small, large := duration(10), duration(100000)
	if large <= small {
		t.Errorf("bcast of 100000 words (%g) not slower than 10 words (%g)", large, small)
	}
}

func TestManyRanksStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	run(t, 64, func(c *Comm) {
		sum := make([]float64, 1)
		for iter := 0; iter < 20; iter++ {
			c.Allreduce([]float64{1}, sum, OpSum)
			if sum[0] != 64 {
				t.Errorf("allreduce got %v", sum[0])
			}
			peer := (c.Rank() + 1) % 64
			prev := (c.Rank() + 63) % 64
			out := []float64{float64(c.Rank())}
			in := make([]float64, 1)
			c.Send(peer, iter, out)
			c.Recv(prev, iter, in)
			if in[0] != float64(prev) {
				t.Errorf("ring got %v want %d", in[0], prev)
			}
		}
	})
}

// A class's freelist is bounded by the memory it holds, not by a count: a
// thousand live 2 KB tiles (slate.QR's per-iteration population at nb = 16)
// must all come back from the pool, or which of them are dropped and remade
// depends on how far apart the ranks run. Large classes keep the old bound.
func TestBufPoolBoundIsByMemory(t *testing.T) {
	p := NewBufPool()
	const small, large = 256, 8192 // words: a 2 KB and a 64 KB class
	for _, tc := range []struct{ words, put, kept int }{
		{small, 1000, 1000},
		{large, 300, minPooledPerClass},
	} {
		bufs := make([][]float64, tc.put)
		for i := range bufs {
			bufs[i] = p.Get(tc.words)
		}
		for _, b := range bufs {
			p.Put(b)
		}
		if got := len(p.classes[sizeClass(tc.words)].free); got != tc.kept {
			t.Errorf("%d buffers of %d words put: %d kept, want %d", tc.put, tc.words, got, tc.kept)
		}
	}
}

// TestRekeyMakesTimingsAFunctionOfTheKey runs one noisy program — compute
// draws, point-to-point traffic, a collective on the world and one on a
// communicator split from it — after Rekey(k) in worlds that did different
// amounts of work first. The elapsed virtual time per rank must depend on k
// and the seed alone: equal across histories, different across keys.
func TestRekeyMakesTimingsAFunctionOfTheKey(t *testing.T) {
	const ranks = 4
	elapsed := func(history int, key uint64) []float64 {
		w := NewWorld(ranks, sim.DefaultMachine(), 99) // with noise
		out := make([]float64, ranks)
		if err := w.Run(func(c *Comm) {
			buf := make([]float64, 64)
			// What ran before: a history-dependent number of draws from the
			// rank stream and of rounds on the world communicator.
			for i := 0; i < history; i++ {
				c.Compute(1e4 * float64(c.Rank()+1))
				c.Allreduce(buf, buf, OpSum)
			}
			c.Barrier()
			c.ResetClock()
			c.Rekey(key)
			row := c.Split(c.Rank()/2, c.Rank())
			next, prev := (c.Rank()+1)%ranks, (c.Rank()+ranks-1)%ranks
			for i := 0; i < 5; i++ {
				c.Compute(1e5)
				c.Send(next, i, buf[:16])
				c.Recv(prev, i, buf[:16])
				c.Bcast(i%ranks, buf)
				row.Allreduce(buf[:8], buf[:8], OpMax)
			}
			out[c.Rank()] = c.Clock() // each rank writes its own slot
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	base := elapsed(0, 7)
	for _, history := range []int{1, 3, 10} {
		got := elapsed(history, 7)
		for r := range got {
			if got[r] != base[r] {
				t.Errorf("history %d: rank %d took %g after Rekey(7), %g with no history", history, r, got[r], base[r])
			}
		}
	}
	other := elapsed(0, 8)
	for r := range other {
		if other[r] == base[r] {
			t.Errorf("rank %d: keys 7 and 8 drew the same timings (%g)", r, base[r])
		}
	}
}
