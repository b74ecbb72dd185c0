package critter

// The copy-on-write path-frequency table this package used before tables had
// a single owner, kept as a test oracle (the pattern of internal/blas and
// internal/lapack's ref_test.go): a snapshot froze the backing array in
// place, every holder copied before its next write, and nobody knew who else
// could see an array. The owned kernelCounts, its freelist and propagate must
// be indistinguishable from it through get.

import (
	"runtime"
	"testing"

	"critter/internal/mpi"
	"critter/internal/sim"
)

// cowCounts is the former kernelCounts, verbatim but for its name.
type cowCounts struct {
	vals   []int64
	shared bool
}

func (k *cowCounts) active() bool { return k.vals != nil }

func (k *cowCounts) get(id uint32) int64 {
	if int(id) >= len(k.vals) {
		return 0
	}
	return k.vals[id]
}

func (k *cowCounts) incr(id uint32) {
	if k.shared || int(id) >= len(k.vals) {
		k.materialize(int(id) + 1)
	}
	k.vals[id]++
}

func (k *cowCounts) materialize(n int) {
	if n < len(k.vals) {
		n = len(k.vals)
	}
	if !k.shared && n <= cap(k.vals) {
		k.vals = k.vals[:n]
		return
	}
	c := cap(k.vals)
	if n > c {
		c *= 2
		if c < n {
			c = n
		}
	}
	if c < 16 {
		c = 16
	}
	vals := make([]int64, n, c)
	copy(vals, k.vals)
	k.vals, k.shared = vals, false
}

func (k *cowCounts) freeze() cowCounts {
	k.shared = true
	return cowCounts{vals: k.vals, shared: true}
}

func (k *cowCounts) reset() {
	if k.shared {
		k.vals = make([]int64, len(k.vals))
		k.shared = false
		return
	}
	clear(k.vals)
}

// cowPath is the oracle's pathset: the execution time that decides a merge,
// and the table.
type cowPath struct {
	exec    float64
	kernels cowCounts
}

// cowMerge is the former mergePath restricted to what decides the table: the
// path with the strictly larger execution time wins, ties keep the earlier.
func cowMerge(a, b cowPath) cowPath {
	out := cowPath{exec: max(a.exec, b.exec), kernels: a.kernels}
	if b.exec > a.exec {
		out.kernels = b.kernels
	}
	return out
}

// cowAdopt is the former Profiler.adopt: an active table replaces the local
// one and stays frozen.
func (p *cowPath) adopt(g cowPath) {
	if g.kernels.active() {
		p.kernels = g.kernels
		p.kernels.shared = true
	}
	p.exec = max(p.exec, g.exec)
}

// owner pairs one simulated rank's real state — a bare Profiler, of which
// snapshot and adopt only touch path, free and the policy — with its oracle.
type owner struct {
	p   *Profiler
	ref cowPath
}

func (o *owner) incr(id uint32) {
	o.p.path.Kernels.incr(id)
	o.ref.kernels.incr(id)
}

// send counts the communication kernel id and then snapshots the owner on
// both sides, as every interception does (notePath, then snapshot — so a
// table on the wire is never inactive; TestPropagateKeepsNilness covers the
// inactive ones GlobalPathFreqs can send).
func (o *owner) send(id uint32) (Pathset, cowPath) {
	o.incr(id)
	return o.p.snapshot(), cowPath{exec: o.ref.exec, kernels: o.ref.kernels.freeze()}
}

func (o *owner) adopt(g Pathset, ref cowPath) {
	o.p.adopt(g)
	o.ref.adopt(ref)
}

// TestKernelCountsMatchCopyOnWriteOracle drives the owned tables and the
// copy-on-write oracle through seeded random sequences of the operations a
// profiler performs — count, grow, point-to-point swap and one-way adoption,
// the internal allreduce over a random subset, both kinds of reset — on 2 to
// 8 simulated owners, and demands identical counts for every id on every
// owner after every step. Recycled buffers carry stale counts throughout, so
// any exposure of a stale tail or any table with two holders shows up as a
// difference.
func TestKernelCountsMatchCopyOnWriteOracle(t *testing.T) {
	const maxID = 96
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(sim.Mix(seed, 0x0c0c))
		owners := make([]*owner, 2+rng.Intn(7))
		for i := range owners {
			owners[i] = &owner{p: &Profiler{opts: Options{Policy: Online}}}
		}
		pick := func() *owner { return owners[rng.Intn(len(owners))] }
		// hot is the id range counted most, so tables are long-lived at one
		// size and occasionally outgrown.
		hot := 4 + rng.Intn(20)
		for step := 0; step < 400; step++ {
			var what string
			switch op := rng.Intn(100); {
			case op < 45:
				what = "incr"
				o := pick()
				for i := rng.Intn(4); i >= 0; i-- {
					o.incr(uint32(rng.Intn(hot)))
				}
				o.p.path.ExecTime += rng.Float64()
				o.ref.exec = o.p.path.ExecTime
			case op < 50:
				what = "grow"
				pick().incr(uint32(hot + rng.Intn(maxID-hot)))
			case op < 65:
				what = "swap"
				a, b := pick(), pick()
				if a == b {
					continue
				}
				ga, ra := a.send(uint32(rng.Intn(hot)))
				gb, rb := b.send(uint32(rng.Intn(hot)))
				a.adopt(gb, rb)
				b.adopt(ga, ra)
			case op < 75:
				what = "one-way"
				a, b := pick(), pick()
				if a == b {
					continue
				}
				g, r := a.send(uint32(rng.Intn(hot)))
				b.adopt(g, r)
			case op < 92:
				what = "allreduce"
				var members []*owner
				for _, o := range owners {
					if rng.Intn(3) > 0 {
						members = append(members, o)
					}
				}
				if len(members) == 0 {
					continue
				}
				if rng.Intn(4) == 0 {
					// A tie for the maximum: the earlier member must win.
					members[len(members)-1].p.path.ExecTime = members[0].p.path.ExecTime
					members[len(members)-1].ref.exec = members[0].ref.exec
				}
				msgs := make([]intMsg, len(members))
				refs := make([]cowPath, len(members))
				id := uint32(rng.Intn(hot))
				for i, o := range members {
					msgs[i].Path, refs[i] = o.send(id)
				}
				propagate(msgs)
				acc := refs[0]
				for _, r := range refs[1:] {
					acc = cowMerge(acc, r)
				}
				for i, o := range members {
					o.adopt(msgs[i].Path, acc)
				}
			case op < 96:
				what = "reset"
				o := pick()
				o.p.path.Kernels.reset()
				o.ref.kernels.reset()
			default:
				what = "reset ids"
				// startConfig with a statistics reset: the table restarts
				// empty on the same backing array.
				o := pick()
				o.p.path.Kernels = kernelCounts{vals: o.p.path.Kernels.vals[:0]}
				o.ref.kernels.reset()
				o.ref.kernels = cowCounts{vals: o.ref.kernels.vals[:0]}
			}
			for i, o := range owners {
				if o.p.path.Kernels.active() != o.ref.kernels.active() {
					t.Fatalf("seed %d step %d (%s): owner %d active = %v, oracle %v",
						seed, step, what, i, o.p.path.Kernels.active(), o.ref.kernels.active())
				}
				for id := uint32(0); id < maxID+1; id++ {
					if got, want := o.p.path.Kernels.get(id), o.ref.kernels.get(id); got != want {
						t.Fatalf("seed %d step %d (%s): owner %d id %d = %d, oracle %d",
							seed, step, what, i, id, got, want)
					}
				}
				if len(o.p.free) > maxFreeCounts {
					t.Fatalf("seed %d step %d: owner %d freelist holds %d buffers, bound is %d",
						seed, step, i, len(o.p.free), maxFreeCounts)
				}
			}
		}
	}
}

// TestRecycledBufferTailIsCleared is the regression test of the hazard the
// single-owner design introduces: a recycled buffer's tail is not zero, so a
// table that extends within its capacity must clear what it exposes. Without
// the clear in materialize the counts of the buffer's previous life reappear
// under ids the new table never counted.
func TestRecycledBufferTailIsCleared(t *testing.T) {
	// A table with counts at high ids retires to the freelist...
	var old kernelCounts
	for id := uint32(0); id < 12; id++ {
		for n := uint32(0); n <= id; n++ {
			old.incr(id)
		}
	}
	var free countsFree
	free.put(old)
	// ...and its buffer carries the snapshot of a much shorter one.
	var short kernelCounts
	short.incr(1)
	snap := short.copyInto(free.get())
	if &snap.vals[0] != &old.vals[0] {
		t.Fatal("snapshot did not reuse the recycled buffer; the test exercises nothing")
	}
	snap.incr(9) // extends within the recycled capacity
	for id := uint32(0); id < 16; id++ {
		want := int64(0)
		if id == 1 || id == 9 {
			want = 1
		}
		if got := snap.get(id); got != want {
			t.Errorf("id %d = %d after extending a recycled buffer, want %d", id, got, want)
		}
	}
	// The same through a restart at length zero (startConfig's id reset).
	restarted := kernelCounts{vals: old.vals[:0]}
	restarted.incr(3)
	for id := uint32(0); id < 16; id++ {
		want := int64(0)
		if id == 3 {
			want = 1
		}
		if got := restarted.get(id); got != want {
			t.Errorf("id %d = %d after regrowing a truncated table, want %d", id, got, want)
		}
	}
}

// TestPropagateKeepsNilness pins the activity rules of the internal
// allreduce: an inactive winner leaves every member inactive (never
// adopted), an active winner reaches members that sent nothing, and an
// empty-but-active table stays active through a copy.
func TestPropagateKeepsNilness(t *testing.T) {
	active := func(n int) kernelCounts {
		k := kernelCounts{vals: make([]int64, 0, 4)}
		for id := 0; id < n; id++ {
			k.incr(uint32(id))
		}
		return k
	}
	msgs := []intMsg{
		{Path: Pathset{ExecTime: 1, Kernels: active(3)}},
		{Path: Pathset{ExecTime: 5}}, // the winner carries no table
		{Path: Pathset{ExecTime: 2, Kernels: active(1)}},
	}
	propagate(msgs)
	for i, m := range msgs {
		if m.Path.Kernels.active() || m.Path.ExecTime != 5 {
			t.Errorf("member %d left with %+v, want the inactive winner's pathset", i, m.Path)
		}
	}
	msgs = []intMsg{
		{Path: Pathset{ExecTime: 1}}, // sent nothing, must still receive
		{Path: Pathset{ExecTime: 5, Kernels: active(0)}},
		{Path: Pathset{ExecTime: 2, Kernels: active(2)}},
	}
	propagate(msgs)
	for i, m := range msgs {
		if !m.Path.Kernels.active() || len(m.Path.Kernels.vals) != 0 {
			t.Errorf("member %d left with table %v, want the winner's empty active table", i, m.Path.Kernels.vals)
		}
	}
	msgs = []intMsg{
		{Path: Pathset{ExecTime: 1}},
		{Path: Pathset{ExecTime: 2, Kernels: active(1)}},
		{Path: Pathset{ExecTime: 5, Kernels: active(2)}},
	}
	propagate(msgs)
	msgs[0].Path.Kernels.incr(0)
	msgs[1].Path.Kernels.incr(1)
	for i, want := range [][2]int64{{2, 1}, {1, 2}, {1, 1}} {
		k := msgs[i].Path.Kernels
		if k.get(0) != want[0] || k.get(1) != want[1] {
			t.Errorf("member %d counts (%d, %d), want %v: members must not see each other's writes",
				i, k.get(0), k.get(1), want)
		}
	}
}

// TestProfiledCollectivesSteadyStateAllocateNothing: after warm-up, 1000
// profiled collectives on 8 ranks under online propagation — each an
// internal allreduce carrying every rank's table, an adoption, and the user
// collective or its skip — add zero mallocs per operation: snapshots cycle
// through the freelist, the round through its shard's.
func TestProfiledCollectivesSteadyStateAllocateNothing(t *testing.T) {
	const iters = 1000
	for _, eps := range []float64{0, 0.25} { // every collective executed; most skipped
		var before, after runtime.MemStats
		w := mpi.NewWorld(8, testMachine(0.05), 7)
		err := w.Run(func(c *mpi.Comm) {
			p, cc := New(c, Options{Policy: Online, Eps: eps})
			for k := 0; k < 48; k++ {
				p.Kernel("seed", k, k, k, 0, 100, func() {})
			}
			in, out := make([]float64, 32), make([]float64, 32)
			step := func(i int) {
				p.Kernel("step", i%4, 8, 8, 0, 1e3, func() {})
				switch i % 3 {
				case 0:
					cc.Allreduce(in, out, mpi.OpSum)
				case 1:
					cc.Bcast(i%8, in)
				default:
					cc.Barrier()
				}
			}
			for i := 0; i < 300; i++ {
				step(i)
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < iters; i++ {
				step(i)
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		// A handful of objects belong to the runtime, not to the operations;
		// anything per-operation shows as a thousand or more.
		if n := after.Mallocs - before.Mallocs; n >= iters/10 {
			t.Errorf("eps %g: %d mallocs over %d profiled collectives on 8 ranks, want none per operation", eps, n, iters)
		}
	}
}
