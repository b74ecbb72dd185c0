package critter

import (
	"runtime"
	"slices"
	"testing"

	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
)

// TestFreelistHoldsPeakInFlight: the freelist has no bound of its own and
// needs none. A rank that posts Isends and waits for them in random bursts
// holds, after every step, free buffers plus snapshots awaiting adoption
// equal to the most it has had awaiting at once; its receiver, which adopts
// as it snapshots, never holds more than one.
func TestFreelistHoldsPeakInFlight(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(sim.Mix(seed, 0xf1ee))
		a := &Profiler{opts: Options{Policy: Online}}
		b := &Profiler{opts: Options{Policy: Online}}
		var replies []Pathset // one per Isend of a not yet waited for
		peak := 0
		for step := 0; step < 600; step++ {
			if len(replies) == 0 || rng.Intn(100) < 55 {
				for n := 1 + rng.Intn(8); n > 0; n-- {
					// a's Isend, matched at once by b's Recv: b replies with
					// its own snapshot and adopts a's.
					a.path.Kernels.incr(uint32(rng.Intn(6)))
					sent := a.snapshot()
					b.path.Kernels.incr(uint32(rng.Intn(6)))
					replies = append(replies, b.snapshot())
					b.adopt(sent)
				}
				peak = max(peak, len(replies))
			} else {
				// Waitall over a prefix of the outstanding requests.
				for n := 1 + rng.Intn(len(replies)); n > 0; n-- {
					a.adopt(replies[0])
					replies = replies[1:]
				}
			}
			if got := len(a.free) + len(replies); got != peak {
				t.Fatalf("seed %d step %d: sender holds %d free + %d in flight = %d tables, peak in flight %d",
					seed, step, len(a.free), len(replies), got, peak)
			}
			if len(b.free) > 1 {
				t.Fatalf("seed %d step %d: receiver holds %d free tables, want at most 1", seed, step, len(b.free))
			}
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestIsendBurstReusesTables: rank 0 of a 2-rank online world posts 64
// Isends before one Waitall and rank 1 receives them. Once a burst has run,
// every later burst allocates nothing: each snapshot takes a path table the
// previous Waitall filed, and the rank's list of outstanding Isends keeps
// its capacity. The count does not depend on how the two ranks interleave,
// so it is zero at GOMAXPROCS 1 and 2 alike.
//
// The count is process-wide, so the Go runtime's own occasional malloc (a
// the scavenger's timer, a new M)
// lands in it at random. The test takes the fewest mallocs over three
// repeats of the measured bursts: a runtime malloc rarely hits all three,
// while an allocation in this code hits every one.
func TestIsendBurstReusesTables(t *testing.T) {
	const burst, bursts, repeats = 64, 8, 3
	mallocs := func() uint64 {
		var counts [repeats]uint64
		w := mpi.NewWorld(2, testMachine(0.05), 3)
		w.SetBufPool(mpi.NewBufPool())
		err := w.Run(func(c *mpi.Comm) {
			p, cc := New(c, Options{Policy: Online, Eps: 0.25})
			buf := make([]float64, 16)
			// fill fences the warm-up burst so both mailboxes reach their full
			// depth: every Isend is queued before rank 1 receives, and every
			// reply before rank 0 waits.
			run := func(fill bool) {
				if c.Rank() == 0 {
					for i := 0; i < burst; i++ {
						cc.Isend(1, i, buf)
					}
					if fill {
						c.Barrier()
						c.Barrier()
					}
					p.Waitall()
					return
				}
				if fill {
					c.Barrier()
				}
				for i := 0; i < burst; i++ {
					cc.Recv(0, i, buf)
				}
				if fill {
					c.Barrier()
				}
			}
			run(true)
			run(false)
			for rep := range counts {
				var before, after runtime.MemStats
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				for r := 0; r < bursts; r++ {
					run(false)
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
					counts[rep] = after.Mallocs - before.Mallocs
				}
				c.Barrier()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Min(counts[:])
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		n := mallocs()
		runtime.GOMAXPROCS(prev)
		t.Logf("GOMAXPROCS %d: at least %d mallocs over %d bursts of %d Isends", procs, n, bursts, burst)
		// A path table per snapshot past the freelist, or anything per
		// Isend, would add burst*bursts objects to every repeat. Under -race
		// the test still drives the reuse for the detector, but the count is
		// not ours.
		if n != 0 && !raceEnabled {
			t.Errorf("GOMAXPROCS %d: %d mallocs over %d bursts of %d Isends in each of %d repeats, want none", procs, n, bursts, burst, repeats)
		}
	}
}

// TestWaitallCompletesEachIsendOnce: rank 0 posts Isends on two
// communicators and calls Waitall, which completes each once and empties the
// rank's list. A second Waitall is a no-op: a second
// completion of any of them would wait for a reply that never comes, which
// the world reports as a deadlock.
func TestWaitallCompletesEachIsendOnce(t *testing.T) {
	w := mpi.NewWorld(2, testMachine(0.05), 5)
	ring := obs.NewRing(64, nil)
	w.SetTracer(ring)
	waits := func() int {
		n := 0
		for _, ev := range ring.Events() {
			if ev.Name == "wait" {
				n++
			}
		}
		return n
	}
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.25})
		other := cc.Split(0, c.Rank())
		buf := make([]float64, 4)
		if c.Rank() == 1 {
			cc.Recv(0, 0, buf)
			other.Recv(0, 0, buf)
			cc.Recv(0, 1, buf)
			return
		}
		cc.Isend(1, 0, buf)
		other.Isend(1, 0, buf)
		cc.Isend(1, 1, buf)
		p.Waitall()
		if n := waits(); n != 3 {
			t.Errorf("Waitall of 3 Isends emitted %d wait rounds, want 3", n)
		}
		if len(p.isends) != 0 {
			t.Errorf("%d Isends still listed after Waitall", len(p.isends))
		}
		p.Waitall()
		if n := waits(); n != 3 {
			t.Errorf("a second Waitall emitted %d more wait rounds, want none", n-3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreshSnapshotIsSizedByContents: a copy that cannot use a recycled
// buffer allocates for the counts it holds, whatever capacity the source
// table inherited (arena capacities depend on which study a worker ran
// before, so sizing by them made a sweep's allocation depend on scheduling),
// and an empty active table still copies to an active one.
func TestFreshSnapshotIsSizedByContents(t *testing.T) {
	src := kernelCounts{vals: make([]int32, 0, 512)}
	for id := uint32(0); id < 40; id++ {
		src.incr(id)
	}
	for _, buf := range [][]int32{nil, make([]int32, 0, 8)} {
		snap := src.copyInto(buf, nil)
		if len(snap.vals) != 40 || cap(snap.vals) != 40 {
			t.Errorf("fresh copy of 40 counts from a table of capacity 512: len %d cap %d", len(snap.vals), cap(snap.vals))
		}
	}
	if snap := src.copyInto(make([]int32, 0, 64), nil); cap(snap.vals) != 64 {
		t.Errorf("a recycled buffer that fits was not used: cap %d", cap(snap.vals))
	}
	empty := kernelCounts{vals: make([]int32, 0, 16)}
	if snap := empty.copyInto(nil, nil); !snap.active() {
		t.Error("the copy of an empty active table is inactive")
	}
}

// TestGrowingPathReusesFirstSnapshot: a configuration that adopts its
// registered table knows its id range from the start, and a rank whose path
// table then grows by one id per barrier makes one fresh table buffer for its
// first snapshot and none after: the buffer has room for the whole range, so
// every later snapshot, the barrier's copy back and the path table's growth
// fit what the rank already holds. Sized by the copy alone, the next id
// outgrew it at every barrier.
func TestGrowingPathReusesFirstSnapshot(t *testing.T) {
	const ranks, n = 2, 12
	ck := ConfigKey("growing-path", 0)
	pool := mpi.NewBufPool()
	backing := func(v []int32) *int32 {
		if v = v[:cap(v)]; len(v) == 0 {
			return nil
		}
		return &v[0]
	}
	for run := range 2 {
		w := mpi.NewWorld(ranks, testMachine(0.05), 9)
		w.SetBufPool(pool)
		err := w.Run(func(c *mpi.Comm) {
			p, cc := New(c, Options{Policy: Online, Eps: 0})
			p.StartConfigKeyed(true, ck)
			held := map[*int32]bool{}
			for i := range n {
				p.Kernel("gemm", i+1, i+1, i+1, 0, 64, func() {})
				cc.Barrier()
				bufs := []*int32{backing(p.path.Kernels.vals)}
				for _, f := range p.free {
					bufs = append(bufs, backing(f))
				}
				for _, b := range bufs {
					if run == 1 && i > 0 && !held[b] {
						t.Errorf("rank %d barrier %d: a table buffer the rank did not hold after its first", c.Rank(), i)
					}
					held[b] = true
				}
			}
			p.Report()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := mpi.Pooled[kernelMemo](pool).lookups(); h != 1 {
		t.Fatalf("the second run found %d registered tables, want 1", h)
	}
}
