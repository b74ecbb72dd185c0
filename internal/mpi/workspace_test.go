package mpi

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// dirtyPool returns a pool holding n buffers of words words each, all NaN.
func dirtyPool(n, words int) *BufPool {
	p := NewBufPool()
	bufs := make([][]float64, n)
	for i := range bufs {
		bufs[i] = p.Get(words)
		for j := range bufs[i] {
			bufs[i][j] = math.NaN()
		}
	}
	for _, b := range bufs {
		p.Put(b)
	}
	return p
}

func allZero(b []float64) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestWorkspaceGetIsMake checks the contract the factorizations lean on: Get
// returns what make returns. Over a fresh chunk from a pool full of NaNs, and
// over a released region the previous holder filled with garbage, the buffer
// is all zeros, has the asked length, and has its capacity clipped to it, so
// an append cannot run into the next buffer.
func TestWorkspaceGetIsMake(t *testing.T) {
	ws := &Workspace{pool: dirtyPool(4, minWorkspaceChunk)}
	base := ws.Mark()
	a := ws.Get(100)
	if len(a) != 100 || cap(a) != 100 || !allZero(a) {
		t.Fatalf("first Get(100): len %d cap %d zero %v", len(a), cap(a), allZero(a))
	}
	for i := range a {
		a[i] = math.Inf(1)
	}
	if b := ws.Get(50); !allZero(b) {
		t.Error("second Get from a dirty chunk is not zeroed")
	}
	ws.Release(base)
	c := ws.Get(120) // spans all of the first buffer and part of the second
	if !allZero(c) {
		t.Error("Get after Release exposes the previous holder's values")
	}
	if &c[0] != &a[0] {
		t.Error("Get after Release did not reuse the released region")
	}
	d := ws.Get(10)
	c = append(c, 7)
	if d[0] != 0 || &c[0] == &a[0] {
		t.Errorf("append past a workspace buffer wrote into its neighbour")
	}
	if e := ws.Get(0); e == nil || len(e) != 0 {
		t.Errorf("Get(0) = %v, want empty and non-nil like make", e)
	}
}

// TestWorkspaceNestedMarks releases an inner mark and then an outer one: each
// pops exactly what was pushed after it.
func TestWorkspaceNestedMarks(t *testing.T) {
	ws := &Workspace{pool: NewBufPool()}
	keep := ws.Get(8)
	outer := ws.Mark()
	o := ws.Get(16)
	inner := ws.Mark()
	i1 := ws.Get(32)
	ws.Release(inner)
	i2 := ws.Get(32)
	if &i1[0] != &i2[0] {
		t.Error("releasing the inner mark did not pop the inner buffer")
	}
	o[0], keep[0] = 1, 2
	ws.Release(outer)
	o2 := ws.Get(16)
	if &o2[0] != &o[0] || o2[0] != 0 {
		t.Error("releasing the outer mark did not pop (and re-zero) the outer buffer")
	}
	if keep[0] != 2 {
		t.Error("a buffer pushed before the mark was disturbed by its release")
	}
	if ws.Mark() == outer {
		t.Error("stack did not advance after Get")
	}
}

// TestWorkspaceBuffersSurviveGrowth pushes buffers until the stack has grown
// through several chunks, each buffer holding its own pattern: no two may
// overlap, none may move, and releasing to a mark taken in an early chunk and
// pushing again must walk the same chunks without taking new ones.
func TestWorkspaceBuffersSurviveGrowth(t *testing.T) {
	ws := &Workspace{pool: NewBufPool()}
	var bufs [][]float64
	for n := 1; len(ws.chunks) < 4; n = n*3/2 + 1 {
		b := ws.Get(n)
		for i := range b {
			b[i] = float64(len(bufs))
		}
		bufs = append(bufs, b)
	}
	for k, b := range bufs {
		for i, v := range b {
			if v != float64(k) {
				t.Fatalf("buffer %d word %d = %v after later pushes: buffers overlap or moved", k, i, v)
			}
		}
	}
	for i := 1; i < len(ws.chunks); i++ {
		if len(ws.chunks[i]) < 2*len(ws.chunks[i-1]) {
			t.Errorf("chunk %d has %d words after one of %d: sizes must at least double", i, len(ws.chunks[i]), len(ws.chunks[i-1]))
		}
	}
	// A request no earlier chunk can hold skips to the one that can.
	chunks := len(ws.chunks)
	ws.Release(WorkspaceMark{})
	big := ws.Get(len(ws.chunks[chunks-1]))
	if len(ws.chunks) != chunks || &big[0] != &ws.chunks[chunks-1][0] {
		t.Errorf("a request fitting the last chunk took a new one (%d chunks, was %d)", len(ws.chunks), chunks)
	}
	// Steady state: the same pushes again allocate nothing.
	ws.Release(WorkspaceMark{})
	if allocs := testing.AllocsPerRun(10, func() {
		m := ws.Mark()
		for _, b := range bufs {
			ws.Get(len(b))
		}
		ws.Release(m)
	}); allocs != 0 {
		t.Errorf("re-pushing a released stack: %v allocs per run, want 0", allocs)
	}
}

// TestWorkspaceChunksReturnToPool checks both ends of a chunk's life in a
// world: chunks come from the world's pool, go back when the rank's body
// returns — so the next world's ranks start from them — and stay out of the
// pool when the rank panics, since a peer unwinding out of a round may still
// be reading one.
func TestWorkspaceChunksReturnToPool(t *testing.T) {
	const ranks = 4
	pool := NewBufPool()
	body := func(c *Comm) {
		ws := c.Workspace()
		if ws != c.Dup().Workspace() {
			t.Error("two communicators of one rank have different workspaces")
		}
		ws.Get(minWorkspaceChunk)     // first chunk
		ws.Get(2 * minWorkspaceChunk) // forces a second
		c.Barrier()                   // every rank holds its chunks at once
	}
	w := NewWorld(ranks, quietMachine(), 1)
	w.SetBufPool(pool)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	if got := pool.Len(); got != 2*ranks {
		t.Fatalf("pool holds %d buffers after %d ranks returned with 2 chunks each", got, ranks)
	}
	// A second world takes its chunks from the pool and gives them back.
	w = NewWorld(ranks, quietMachine(), 1)
	w.SetBufPool(pool)
	if err := w.Run(func(c *Comm) {
		body(c)
		if c.Rank() == 0 && pool.Len() != 0 {
			t.Errorf("pool still holds %d buffers while every rank has its chunks out", pool.Len())
		}
		c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if got := pool.Len(); got != 2*ranks {
		t.Errorf("pool holds %d buffers after the second world, want %d again", got, 2*ranks)
	}
	// Every rank of a failed world keeps its chunks from the pool: rank 1
	// by its own panic, the others by the abort that unwinds them.
	boom := errors.New("boom")
	w = NewWorld(ranks, quietMachine(), 1)
	w.SetBufPool(pool)
	err := w.Run(func(c *Comm) {
		body(c)
		if c.Rank() == 1 {
			panic(boom)
		}
		c.Barrier()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error %v does not wrap the rank's panic", err)
	}
	if got := pool.Len(); got != 0 {
		t.Errorf("pool holds %d buffers after a failed world: a panicking rank returned its chunks", got)
	}
}

// TestCostOnlyWorkspaceIsOneScratch checks a cost-only world's workspace:
// every rank's Get is an unzeroed view of one buffer all ranks share,
// clipped to the asked length, and leaves the rank's stack alone; a Get the
// scratch cannot hold replaces it, dropping the old buffer; Run gives the
// scratch back to the pool when the world ends normally and keeps it out
// after a failure, as it does a rank's chunks.
func TestCostOnlyWorkspaceIsOneScratch(t *testing.T) {
	const ranks, big = 4, 1 << 14
	pool := NewBufPool()
	var first, grown []float64
	w := NewWorld(ranks, quietMachine(), 1)
	w.SetBufPool(pool)
	if err := w.Run(func(c *Comm) {
		c.World().MarkCostOnly()
		ws := c.Workspace()
		mark := ws.Mark()
		a := ws.Get(100)
		if len(a) != 100 || cap(a) != 100 {
			t.Errorf("rank %d: Get(100) has len %d cap %d", c.Rank(), len(a), cap(a))
		}
		if b := ws.Get(50); &b[0] != &a[0] {
			t.Errorf("rank %d: two Gets are not views of one scratch", c.Rank())
		}
		if ws.Mark() != mark || len(ws.chunks) != 0 {
			t.Errorf("rank %d: a cost-only Get moved the stack (%d chunks)", c.Rank(), len(ws.chunks))
		}
		switch {
		case first == nil:
			first = a
			a[99] = 7
		case &a[0] != &first[0] || a[99] != 7:
			t.Errorf("rank %d: Get is not an unzeroed view of the scratch another rank wrote", c.Rank())
		}
		AllreduceMsg(c, 0, func(a, b int) int { return a }) // every rank has taken its views
		if c.Rank() == ranks-1 {
			grown = ws.Get(big)
			if &grown[0] == &first[0] {
				t.Error("a Get past the scratch's capacity did not replace it")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := pool.Len(); got != 1 {
		t.Fatalf("pool holds %d buffers after a cost-only world, want its scratch alone", got)
	}
	if b := pool.Get(big); &b[0] != &grown[0] {
		t.Error("the pooled buffer is not the world's last scratch")
	}

	boom := errors.New("boom")
	w = NewWorld(ranks, quietMachine(), 1)
	w.SetBufPool(pool)
	err := w.Run(func(c *Comm) {
		c.World().MarkCostOnly()
		c.Workspace().Get(100)
		if c.Rank() == 1 {
			panic(boom)
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error %v does not wrap the rank's panic", err)
	}
	if got := pool.Len(); got != 0 {
		t.Errorf("pool holds %d buffers after a failed cost-only world: its scratch went back", got)
	}
}

// TestCostOnlyWorldsShareNoScratch runs two cost-only worlds at once on one
// pool, which holds one buffer either could take. Each world's ranks write
// their scratch, and its last rank holds it while the other world's does
// and writes it again: the two scratches must differ, keep their own
// contents, and both return to the pool. Under -race a shared scratch is
// also a data race.
func TestCostOnlyWorldsShareNoScratch(t *testing.T) {
	const ranks, n = 2, 512
	pool := NewBufPool()
	pool.Put(make([]float64, n))
	var held [2][]float64
	ready := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewWorld(ranks, quietMachine(), 1)
			w.SetBufPool(pool)
			errs[i] = w.Run(func(c *Comm) {
				c.World().MarkCostOnly()
				b := c.Workspace().Get(n)
				for j := range b {
					b[j] = float64(i)
				}
				if c.Rank() != ranks-1 {
					return
				}
				held[i] = b
				close(ready[i])
				<-ready[1-i]
				for j, v := range b {
					if v != float64(i) {
						t.Errorf("world %d: scratch word %d is %v, written by the other world", i, j, v)
						break
					}
					b[j] = float64(i)
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
	if &held[0][0] == &held[1][0] {
		t.Error("two worlds running at once share one scratch")
	}
	if got := pool.Len(); got != 2 {
		t.Errorf("pool holds %d buffers after both worlds, want their two scratches", got)
	}
}
