package critter

// Former implementations kept as test oracles (the pattern of internal/blas
// and internal/lapack's ref_test.go).
//
// The copy-on-write path-frequency table this package used before tables had
// a single owner: a snapshot froze the backing array in place, every holder
// copied before its next write, and nobody knew who else could see an array.
// The owned kernelCounts, its freelist and propagate must be
// indistinguishable from it through get.
//
// The Key-keyed per-configuration archive (mapArchive, below): a Profile
// whose maps StartConfig merged into by hashing every signature, cloned at
// every export, and P exports folded by every rank. The id-dense archive of
// archive.go and the export round's single fold must produce the same
// profiles bit for bit. The same walk holds the a-priori install by kernel id
// (SetAprioriFromPath) to the Key-keyed table it replaced in the sweep,
// GlobalPathFreqs().
//
// The Key-keyed prediction model (keyedModel, at the end): a map of live
// accumulators over a map of priors, with a set of pooled keys, queried by
// hashing the signature every time. The per-id record (kernelStats) with its
// resolved prior must answer every query, skip decisions included, bit for
// bit the same.

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"critter/internal/mpi"
	"critter/internal/sim"
	"critter/internal/stats"
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
	snap := short.copyInto(free.get(), nil)
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
		k := kernelCounts{vals: make([]int32, 0, 4)}
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
// through the freelist, the round through its fabric's.
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

// mapArchive is the former Profiler.archive with the code that filled and
// exported it, verbatim but for taking the profiler as an argument.
type mapArchive struct{ prof *Profile }

// beforeStartConfig does what startConfig did to the archive; the test calls
// it directly before the StartConfig it mirrors, when the profiler is in the
// state that StartConfig archives.
func (m *mapArchive) beforeStartConfig(p *Profiler, resetStats bool) {
	m.archivePathFreqs(p)
	if resetStats && p.opts.Policy != Eager {
		m.archiveEstimator(p)
	}
}

func (m *mapArchive) archivePathFreqs(p *Profiler) {
	freqs := p.path.Kernels
	if !freqs.active() {
		return
	}
	archived := false
	for id, v := range freqs.vals {
		if v == 0 {
			continue
		}
		if !archived {
			archived = true
			if m.prof == nil {
				m.prof = &Profile{SchemaVersion: ProfileSchemaVersion}
			}
			if m.prof.PathFreqs == nil {
				m.prof.PathFreqs = make(map[Key]int64)
			}
		}
		key := p.tab.KeyOf(uint32(id))
		m.prof.PathFreqs[key] = max(m.prof.PathFreqs[key], int64(v))
	}
}

func (m *mapArchive) archiveEstimator(p *Profiler) {
	if !refHasLiveState(p) {
		return
	}
	if m.prof == nil {
		m.prof = &Profile{SchemaVersion: ProfileSchemaVersion}
	}
	refArchiveInto(p, m.prof)
	m.prof.Estimator = estimatorName
}

// export is the former Profiler.ExportProfile.
func (m *mapArchive) export(p *Profiler) *Profile {
	out := m.prof.Clone()
	if out == nil {
		out = &Profile{SchemaVersion: ProfileSchemaVersion}
	}
	refArchiveInto(p, out)
	out.Estimator = estimatorName
	for id, v := range p.path.Kernels.vals {
		if v == 0 {
			continue
		}
		if out.PathFreqs == nil {
			out.PathFreqs = make(map[Key]int64)
		}
		key := p.tab.KeyOf(uint32(id))
		out.PathFreqs[key] = max(out.PathFreqs[key], int64(v))
	}
	return out
}

// refHasLiveState is the former ciMean.hasLiveState, reading the live layer
// from the records.
func refHasLiveState(p *Profiler) bool {
	for i := range p.k {
		if p.k[i].live.Count() > 0 {
			return true
		}
	}
	for _, fm := range p.est.families {
		if len(fm.points) > 0 {
			return true
		}
	}
	return false
}

// refArchiveInto is the former ciMean.archiveInto: the live layer merged
// into dst key by key, archive-side accumulator first.
func refArchiveInto(p *Profiler, dst *Profile) {
	e := p.est
	for i := range p.k {
		w := p.k[i].live
		if w.Count() == 0 {
			continue
		}
		key := p.tab.KeyOf(p.k[i].id)
		om := KernelModel{
			Count: w.Count(), Mean: w.Mean(), M2: w.M2(),
			Pooled: p.k[i].pooled,
		}
		if dst.Kernels == nil {
			dst.Kernels = make(map[Key]KernelModel)
		}
		km, ok := dst.Kernels[key]
		if !ok {
			dst.Kernels[key] = om
			continue
		}
		wm := welfordOf(km)
		wm.Merge(welfordOf(om))
		dst.Kernels[key] = KernelModel{
			Count: wm.Count(), Mean: wm.Mean(), M2: wm.M2(),
			Pooled: km.Pooled || om.Pooled,
		}
	}
	for name, fm := range e.families {
		if len(fm.points) == 0 {
			continue
		}
		pts := make([]FamilyPoint, 0, len(fm.points))
		for _, pt := range fm.points {
			pts = append(pts, FamilyPoint{Flops: pt.flops, Mean: pt.mean})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].Flops < pts[j].Flops })
		if dst.Families == nil {
			dst.Families = make(map[string]Family, len(e.families))
		}
		if fam, ok := dst.Families[name]; ok {
			dst.Families[name] = Family{Points: mergePoints(fam.Points, pts)}
		} else {
			dst.Families[name] = Family{Points: pts}
		}
	}
}

// refMergeExports is the former mergeExports, the fold every rank performed
// over the gathered per-rank exports: one clone, then in-place merges in
// comm-rank order.
func refMergeExports(profs []*Profile) *Profile {
	out := profs[0].Clone()
	if out == nil {
		out = &Profile{SchemaVersion: ProfileSchemaVersion}
	}
	for _, o := range profs[1:] {
		out.merge(o, true)
	}
	return out
}

// TestArchiveMatchesMapOracle drives a profiler per rank, on worlds of 2 to 8
// ranks, through seeded random sequences of everything that reaches the
// archive — configurations with statistics reset and kept, the memo handing
// the same kernel table twice in a row (successive halving's last-then-first
// configuration), a-priori's offline pass followed by StartConfig(false),
// eager pooling (Pooled models) followed by a flip to a resetting policy,
// family models under Extrapolate, a warm-start prior whose samples no export
// may contain — with the map archive
// mirrored beside it, and demands after random steps and at the end that
// ExportProfile equals the oracle's export and GlobalProfile equals the
// former fold of the oracle's per-rank exports on root and is nil elsewhere.
// The a-priori step installs its counts by id or by Key at random, and after the install
// and after the selective pass every seen record's count must be the global
// path table's entry for its Key — including records first seen in the
// selective pass, which must find a count the critical path's owner left.
func TestArchiveMatchesMapOracle(t *testing.T) {
	names := []string{"gemm", "trsm", "syrk"}
	dims := []int{4, 8, 12, 16}
	// lateCounted counts records first seen in a selective pass with a
	// nonzero count, which lookup, not the install's re-resolve, gave them.
	var lateCounted atomic.Int64
	defer func() {
		if lateCounted.Load() == 0 && !t.Failed() {
			t.Error("no a-priori step read a nonzero count for a kernel first seen in its selective pass")
		}
	}()
	for seed := uint64(1); seed <= 14; seed++ {
		ranks := 2 + int(seed%7)
		opts := Options{Policy: Conditional, Eps: 0.3, Extrapolate: seed%2 == 0}
		if seed%4 < 2 {
			// A prior over part of the signature set: those kernels skip
			// after one validation execution, and their prior samples must
			// stay out of every export.
			opts.Prior = &Profile{
				SchemaVersion: ProfileSchemaVersion,
				Kernels: map[Key]KernelModel{
					CompKey("gemm", 4, 4, 4, 0):    {Count: 6, Mean: 3e-8, M2: 1e-18},
					CompKey("gemm", 8, 8, 8, 0):    {Count: 9, Mean: 2e-7, M2: 4e-17},
					CompKey("trsm", 12, 12, 12, 0): {Count: 4, Mean: 7e-7, M2: 9e-16},
				},
				Families: map[string]Family{"syrk": {Points: []FamilyPoint{
					{Flops: 64, Mean: 3e-8}, {Flops: 512, Mean: 2e-7}, {Flops: 4096, Mean: 1.6e-6},
				}}},
			}
		}
		exports := make([]*Profile, ranks)
		w := mpi.NewWorld(ranks, testMachine(0.05), seed)
		err := w.Run(func(c *mpi.Comm) {
			// ctl decides what every rank does next; loc varies how much of
			// it this rank does, so the ranks' sample sets differ.
			ctl := sim.NewRNG(sim.Mix(seed, 0xa1))
			loc := sim.NewRNG(sim.Mix(seed, 0xa2, uint64(c.Rank())))
			// Two profilers in turn, as two sweeps of a worker: the second
			// fills the archive slabs the first retired to the pool's memo,
			// stale contents and all.
			for sweep := 0; sweep < 2; sweep++ {
				p, cc := New(c, opts)
				half := cc.Split(c.Rank()%2, c.Rank())
				ref := &mapArchive{}
				in, out := make([]float64, 16), make([]float64, 16)
				work := func() {
					for n := 3 + ctl.Intn(5); n > 0; n-- {
						name, d := names[ctl.Intn(len(names))], dims[ctl.Intn(len(dims))]
						for r := 1 + loc.Intn(4); r > 0; r-- {
							p.Kernel(name, d, d, d, 0, float64(d*d*d), func() {})
						}
						switch ctl.Intn(4) {
						case 0:
							cc.Allreduce(in, out, mpi.OpSum)
						case 1:
							half.Allreduce(in[:8], out[:8], mpi.OpSum)
						case 2:
							if peer := c.Rank() ^ 1; peer < ranks {
								cc.Sendrecv(peer, 5, in[:4], out[:4])
							}
						}
					}
				}
				start := func(resetStats, keyed bool, cfg uint64) {
					ref.beforeStartConfig(p, resetStats)
					if keyed {
						p.StartConfigKeyed(resetStats, cfg)
					} else {
						p.StartConfig(resetStats)
					}
				}
				check := func(step int, what string) {
					want := ref.export(p)
					if got := p.ExportProfile(); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d step %d (%s) rank %d: ExportProfile differs from the map archive's export\n got %+v\nwant %+v",
							seed, step, what, c.Rank(), got, want)
					}
					exports[c.Rank()] = want
					root := step % ranks
					got := p.GlobalProfile(root)
					// The round is behind this rank, so every rank's export
					// of this step is written.
					if c.Rank() != root && got != nil {
						t.Errorf("seed %d step %d: GlobalProfile(%d) returned a profile on rank %d", seed, step, root, c.Rank())
					}
					if c.Rank() == root && !reflect.DeepEqual(got, refMergeExports(exports)) {
						t.Errorf("seed %d step %d (%s): GlobalProfile(%d) differs from the former fold of the per-rank exports",
							seed, step, what, root)
					}
					// Nobody may overwrite a slot before every rank has read it.
					c.Barrier()
				}
				// checkApriori demands that every seen record's a-priori
				// count be want's entry for its Key (0 for a nil want).
				checkApriori := func(step int, what string, want map[Key]int64) {
					for _, ks := range p.k {
						key := p.tab.KeyOf(ks.id)
						got := int64(ks.apriori)
						if got != want[key] {
							t.Errorf("seed %d step %d (%s) rank %d: %v has a-priori count %d, the global path table %d",
								seed, step, what, c.Rank(), key, got, want[key])
						}
						if key.Name() == "solo" && int(key.P1) != c.Rank() && got > 0 {
							lateCounted.Add(1)
						}
					}
				}
				lastCfg := uint64(0)
				for step := 0; step < 30; step++ {
					var what string
					switch op := ctl.Intn(100); {
					case op < 30:
						what = "reset, keyed"
						cfg := 1 + uint64(ctl.Intn(4))
						if ctl.Intn(3) == 0 && lastCfg != 0 {
							cfg = lastCfg // the memo hands back the table just used
						}
						lastCfg = cfg
						start(true, true, cfg)
						work()
						p.Report()
						// A reset drops counts installed by id: they belong to
						// the previous interner's ids.
						checkApriori(step, what, nil)
					case op < 40:
						what = "reset"
						start(true, false, 0)
						work()
						checkApriori(step, what, nil)
					case op < 55:
						what = "kept"
						start(false, false, 0)
						work()
					case op < 70:
						what = "a-priori"
						pol, eps := p.Policy(), p.Eps()
						start(true, true, 9)
						p.SetPolicy(Online)
						p.SetEps(0)
						work()
						// Each rank runs a signature of its own: on every rank
						// but the critical path's owner, the owner's is counted
						// in the global table and first seen in the selective
						// pass below.
						p.Kernel("solo", c.Rank(), 1, 1, 0, 8, func() {})
						p.Report()
						want := p.GlobalPathFreqs()
						p.SetAprioriFromPath()
						checkApriori(step, what, want)
						p.SetPolicy(APriori)
						p.SetEps(eps)
						start(false, false, 0)
						for r := 0; r < ranks; r++ {
							p.Kernel("solo", r, 1, 1, 0, 8, func() {})
						}
						work()
						checkApriori(step, what+", selective pass", want)
						p.SetPolicy(pol)
					case op < 85:
						what = "eager, then a resetting policy"
						p.SetPolicy(Eager)
						start(true, false, 0) // resets nothing under eager
						work()
						work()
						p.SetPolicy([]Policy{Conditional, Local, Online}[ctl.Intn(3)])
						if ctl.Intn(2) == 0 {
							// Archive the pooled accumulators as eager left them,
							// dense slot or not.
							start(true, false, 0)
							work()
						}
					default:
						what = "more of the same configuration"
						work()
					}
					if ctl.Intn(3) == 0 || step == 29 {
						check(step, what)
					}
				}
				p.Retire()
			}
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestExportFoldPanicAbortsWorld corrupts one rank's archive so that rekeying
// it panics inside the export round's finish — on whichever rank arrives
// last, with every other rank waiting in the round. The world must abort,
// stopping the waiting ranks, and Run return the panic as an error.
func TestExportFoldPanicAbortsWorld(t *testing.T) {
	for _, ranks := range []int{2, 8} {
		for _, root := range []int{0, 1} {
			w := mpi.NewWorld(ranks, testMachine(0.05), 3)
			err := w.Run(func(c *mpi.Comm) {
				p, _ := New(c, Options{Policy: Conditional, Eps: 0})
				p.Kernel("gemm", 8, 8, 8, 0, 512, func() {})
				p.StartConfig(true)
				if c.Rank() == ranks-1 {
					p.arch.models[0].id = 1 << 20 // no table ever assigned it
				}
				p.GlobalProfile(root)
				t.Errorf("ranks %d root %d: rank %d returned from an export round whose fold panicked", ranks, root, c.Rank())
			})
			var rerr runtime.Error
			if !errors.As(err, &rerr) {
				t.Errorf("ranks %d root %d: Run error %v does not wrap the fold's panic", ranks, root, err)
			}
		}
	}
}

// keyedModel is the former ciMean's per-signature state without its caches:
// plain maps, hashed on every query.
type keyedModel struct {
	live   map[Key]stats.Welford
	prior  map[Key]stats.Welford
	pooled map[Key]bool
	// archived is what reset sets aside, as the archive would export it.
	archived map[Key]KernelModel
}

func newKeyedModel(prior *Profile) *keyedModel {
	m := &keyedModel{
		live: map[Key]stats.Welford{}, pooled: map[Key]bool{}, archived: map[Key]KernelModel{},
	}
	if prior != nil {
		m.prior = map[Key]stats.Welford{}
		for key, km := range prior.Kernels {
			m.prior[key] = stats.WelfordFromMoments(km.Count, km.Mean, km.M2)
		}
	}
	return m
}

func (m *keyedModel) observe(key Key, dt float64) {
	w := m.live[key]
	w.Add(dt)
	m.live[key] = w
}

// model is the former ciMean.model.
func (m *keyedModel) model(key Key) stats.Welford {
	cw, hasLive := m.live[key]
	w, hasPrior := m.prior[key]
	if !hasPrior {
		return cw
	}
	if hasLive {
		w.Merge(cw)
	}
	return w
}

func (m *keyedModel) adoptPooled(key Key, w stats.Welford) {
	m.live[key] = w
	m.pooled[key] = true
}

// export is the archive followed by the live layer, per key.
func (m *keyedModel) export() map[Key]KernelModel {
	out := &Profile{Kernels: map[Key]KernelModel{}}
	for key, km := range m.archived {
		out.Kernels[key] = km
	}
	for key, w := range m.live {
		out.mergeKernel(key, KernelModel{Count: w.Count(), Mean: w.Mean(), M2: w.M2(), Pooled: m.pooled[key]}, false)
	}
	return out.Kernels
}

func (m *keyedModel) reset() {
	m.archived = m.export()
	m.live, m.pooled = map[Key]stats.Welford{}, map[Key]bool{}
}

// TestRecordMatchesKeyedOracle drives one profiler's records and the keyed
// model through the same seeded random sequences of everything that reads or
// writes a kernel's model — samples, skip charges, skip decisions at random
// frequency credits (the Local policy's, set on the record), eager
// adoptions, tolerance changes, statistics resets — with and
// without a prior, and demands bit-equal means, counts and verdicts after
// every step and equal exports before every reset. The signature set includes
// one the prior knows and nobody ever samples, one no layer knows, and every
// signature is sampled after an adoption sooner or later.
func TestRecordMatchesKeyedOracle(t *testing.T) {
	var keys []Key
	for _, d := range []int{4, 8, 16} {
		keys = append(keys, CompKey("gemm", d, d, d, 0), CompKey("trsm", d, d, 0, 0), CommKey("bcast", d, 8, 1))
	}
	unsampled := CompKey("potrf", 32, 0, 0, 0) // prior-backed, looked up, never sampled
	unknown := CommKey("reduce", 99, 8, 1)     // in no layer, never looked up
	keys = append(keys, unsampled)
	prior := &Profile{SchemaVersion: ProfileSchemaVersion, Kernels: map[Key]KernelModel{
		unsampled: {Count: 12, Mean: 5e-6, M2: 2e-13},
		keys[0]:   {Count: 3, Mean: 1e-6, M2: 1e-14},
		keys[4]:   {Count: 7, Mean: 3e-6, M2: 5e-13},
		keys[8]:   {Count: 2, Mean: 2e-6, M2: 8e-15},
	}}
	for seed := uint64(1); seed <= 12; seed++ {
		opts := Options{Policy: Local, Eps: 0.2}
		if seed%2 == 0 {
			opts.Prior = prior
		}
		w := mpi.NewWorld(1, testMachine(0), seed)
		err := w.Run(func(c *mpi.Comm) {
			p, _ := New(c, opts)
			ref := newKeyedModel(opts.Prior)
			rng := sim.NewRNG(sim.Mix(seed, 0xb7))
			same := func(step int, what string, key Key, got stats.Welford) {
				want := ref.model(key)
				if got != want {
					t.Errorf("seed %d step %d (%s) %v: record model %+v, keyed model %+v", seed, step, what, key, got, want)
				}
				if p.Mean(key) != want.Mean() || p.Samples(key) != want.Count() {
					t.Errorf("seed %d step %d (%s) %v: Mean/Samples %g/%d, keyed model %g/%d",
						seed, step, what, key, p.Mean(key), p.Samples(key), want.Mean(), want.Count())
				}
			}
			for step := 0; step < 600 && !t.Failed(); step++ {
				key := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(100); {
				case op < 40:
					if key == unsampled {
						continue
					}
					dt := 1e-6 * float64(1+key.P1) * rng.LogNormal(0.05+0.3*rng.Float64())
					_, ks := p.lookup(key)
					p.record(ks, dt)
					ref.observe(key, dt)
					same(step, "observe", key, ks.model())
				case op < 55:
					_, ks := p.lookup(key)
					want := ref.model(key)
					if got := p.settle(ks, false, nil); got != want.Mean() {
						t.Errorf("seed %d step %d %v: a skip is charged %g, keyed model's mean is %g", seed, step, key, got, want.Mean())
					}
					same(step, "estimate", key, ks.model())
				case op < 80:
					freq := int32(1 + rng.Intn(40))
					id, ks := p.lookup(key)
					ks.localFreq = freq
					want := ref.model(key)
					// A kernel that has not run this configuration executes
					// whatever its model says.
					wantExec := !ks.ran || !want.Predictable(p.Eps(), int64(freq))
					if got := p.shouldExecute(id, ks); got != wantExec {
						t.Errorf("seed %d step %d %v (ran %v): shouldExecute(eps %g, freq %d) = %v through the record, %v from the keyed model %+v",
							seed, step, key, ks.ran, p.Eps(), freq, got, wantExec, want)
					}
				case op < 87:
					if key == unsampled {
						continue
					}
					var pooled stats.Welford
					for n := 2 + rng.Intn(4); n > 0; n-- {
						pooled.Add(1e-6 * float64(1+key.P1) * rng.LogNormal(0.1))
					}
					_, ks := p.lookup(key)
					ks.adoptPooled(pooled)
					ref.adoptPooled(key, pooled)
					same(step, "adopt pooled", key, ks.model())
				case op < 91:
					p.SetEps([]float64{0.05, 0.2, 0.5}[rng.Intn(3)])
				case op < 95:
					if got, want := p.ExportProfile().Kernels, ref.export(); !sameKernels(got, want) {
						t.Errorf("seed %d step %d: export before reset\n got %+v\nwant %+v", seed, step, got, want)
					}
					p.StartConfig(true)
					ref.reset()
				default:
					// The report accessors, on signatures seen and not.
					for _, k := range []Key{key, unknown} {
						want := ref.model(k)
						if p.Mean(k) != want.Mean() || p.Samples(k) != want.Count() {
							t.Errorf("seed %d step %d %v: Mean/Samples %g/%d, keyed model %g/%d",
								seed, step, k, p.Mean(k), p.Samples(k), want.Mean(), want.Count())
						}
					}
				}
			}
			if got, want := p.ExportProfile().Kernels, ref.export(); !sameKernels(got, want) {
				t.Errorf("seed %d: final export\n got %+v\nwant %+v", seed, got, want)
			}
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// sameKernels compares exported kernel models, a nil map equal to an empty one.
func sameKernels(got, want map[Key]KernelModel) bool {
	return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
}
