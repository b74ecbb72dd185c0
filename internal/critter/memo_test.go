package critter

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"critter/internal/mpi"
)

// TestMemoKeepsWorldSizesApart runs one configuration key on worlds of two
// sizes on one buffer pool, the way a study keeps its name from quick to
// default scale: each size registers and adopts its own table in the pool's
// memo, so a run at one scale never interns into the other's.
func TestMemoKeepsWorldSizesApart(t *testing.T) {
	pool := mpi.NewBufPool()
	memo := mpi.Pooled[kernelMemo](pool)
	cfg := ConfigKey("study", 3)
	for i, step := range []struct {
		ranks        int
		hits, misses int64
	}{
		{2, 0, 1}, // first run anywhere: registers
		{4, 0, 2}, // same key, other world size: a table of its own
		{2, 1, 2}, // adopts what the 2-rank run registered
		{4, 2, 2}, // adopts what the 4-rank run registered
	} {
		w := mpi.NewWorld(step.ranks, testMachine(0.05), 1)
		w.SetBufPool(pool)
		if err := w.Run(func(c *mpi.Comm) {
			p, _ := New(c, Options{Policy: Conditional, Eps: 0.3})
			p.StartConfigKeyed(true, cfg)
			p.Kernel("gemm", 4, 4, 4, 0, 64, func() {})
			p.Report()
			p.Retire()
		}); err != nil {
			t.Fatal(err)
		}
		if h, m := memo.lookups(); h != step.hits || m != step.misses {
			t.Errorf("run %d (%d ranks): %d hits and %d misses, want %d and %d",
				i+1, step.ranks, h, m, step.hits, step.misses)
		}
	}
}

// TestMemoRegistersTableAtStart starts one keyed configuration under two
// profilers of one world before either reports: the memo registers the
// first's table when it is made, so the second adopts that table instead of
// making one of its own, and both intern into it.
func TestMemoRegistersTableAtStart(t *testing.T) {
	cfg := ConfigKey("start", 0)
	w := mpi.NewWorld(3, testMachine(0.05), 5)
	memo := mpi.Pooled[kernelMemo](w.BufPoolOf())
	err := w.Run(func(c *mpi.Comm) {
		first, _ := New(c, Options{Policy: Conditional, Eps: 0.3})
		second, _ := New(c, Options{Policy: Conditional, Eps: 0.3})
		first.StartConfigKeyed(true, cfg)
		second.StartConfigKeyed(true, cfg)
		if first.Table() != second.Table() {
			t.Errorf("rank %d: the second profiler made a table of its own", c.Rank())
		}
		first.Kernel("gemm", 4, 4, 4, 0, 64, func() {})
		second.Kernel("gemm", 4, 4, 4, 0, 64, func() {})
		first.Report()
		second.Report()
	})
	if err != nil {
		t.Fatal(err)
	}
	if h, m := memo.lookups(); h != 1 || m != 1 {
		t.Errorf("%d hits and %d misses, want the second profiler's 1 and the first's 1", h, m)
	}
}

// scratchStudy is what one world runs before its export: a few keyed
// configurations of kernels and collectives.
type scratchStudy struct {
	ranks   int
	seed    uint64
	names   []string
	dims    int // kernel sizes 1..dims per name
	configs int
	extrap  bool
}

// large and small are two studies of different shapes: the large one fills
// every map a fold touches (kernel models from several configurations, path
// frequencies, families under Extrapolate), the small one holds a few keys
// on another world size.
var (
	largeStudy = scratchStudy{ranks: 8, seed: 11, names: []string{"gemm", "trsm", "syrk", "potrf"}, dims: 24, configs: 3, extrap: true}
	smallStudy = scratchStudy{ranks: 3, seed: 12, names: []string{"geqrt"}, dims: 3, configs: 2}
)

// work runs the study's configurations on one rank.
func (s scratchStudy) work(c *mpi.Comm, p *Profiler, cc *Comm) {
	in, res := make([]float64, 8), make([]float64, 8)
	for cfg := 0; cfg < s.configs; cfg++ {
		p.StartConfigKeyed(true, ConfigKey(s.names[0], cfg))
		for d := 1; d <= s.dims; d++ {
			for _, name := range s.names {
				// A rank runs its own share of the sizes, so the ranks'
				// exports differ and the fold has keys to union; three
				// samples make a model predictable, which gives its family
				// a point under Extrapolate.
				for r := 0; r < 3 && (d+c.Rank())%3 != 0; r++ {
					p.Kernel(name, d+cfg, d, d, 0, float64(8*d*d*d), func() {})
				}
			}
			if d%4 == 0 {
				cc.Allreduce(in[:d%8+1], res[:d%8+1], mpi.OpSum)
			}
		}
		p.Report()
	}
}

// run executes the study on a fresh world on pool and returns root's global
// profile after each of exports exports, nil when the world fails; every
// rank retires its profiler at the end, as a sweep does. A non-nil gate is
// called on rank 0 between the work and the exports.
func (s scratchStudy) run(t *testing.T, pool *mpi.BufPool, exports int, gate func()) []*Profile {
	t.Helper()
	out := make([]*Profile, exports)
	w := mpi.NewWorld(s.ranks, testMachine(0.05), s.seed)
	w.SetBufPool(pool)
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.3, Extrapolate: s.extrap})
		s.work(c, p, cc)
		if gate != nil {
			if c.Rank() == 0 {
				gate()
			}
			c.Barrier()
		}
		for i := range out {
			if g := p.GlobalProfile(0); c.Rank() == 0 {
				out[i] = g
			}
		}
		p.Retire()
	})
	if err != nil {
		t.Error(err)
		return nil
	}
	return out
}

// once runs the study and returns its one export, stopping the test when the
// world fails.
func (s scratchStudy) once(t *testing.T, pool *mpi.BufPool) *Profile {
	t.Helper()
	out := s.run(t, pool, 1, nil)
	if out == nil {
		t.FailNow()
	}
	return out[0]
}

// TestExportScratchLeaksNothing folds a large export on one pool, then a
// smaller one of another study and world size: the second must equal the same
// export made on a fresh pool, so nothing the large fold left in the pool's
// memo's scratch reaches a later result. A last leg folds two studies on one
// pool at once, each world exporting several times.
func TestExportScratchLeaksNothing(t *testing.T) {
	pool := mpi.NewBufPool()
	memo := mpi.Pooled[kernelMemo](pool)
	large := largeStudy.once(t, pool)
	if len(large.Kernels) == 0 || len(large.PathFreqs) == 0 || len(large.Families) == 0 {
		t.Fatalf("the large export fills %d kernels, %d path frequencies and %d families, want every map used",
			len(large.Kernels), len(large.PathFreqs), len(large.Families))
	}
	scratch := memo.scratch
	if scratch == nil {
		t.Fatal("the fold did not give its scratch back to the memo")
	}
	got := smallStudy.once(t, pool)
	if memo.scratch != scratch {
		t.Error("the second fold did not reuse the memo's scratch")
	}
	if len(scratch.Kernels)+len(scratch.Families)+len(scratch.PathFreqs) != 0 {
		t.Error("the memo holds a scratch with entries left in it")
	}
	if w := smallStudy.once(t, mpi.NewBufPool()); !reflect.DeepEqual(got, w) {
		t.Errorf("after a large fold, the small export differs from the one made on a fresh pool\n got %+v\nwant %+v", got, w)
	}

	const exports = 8
	var want [2]*Profile
	for i, s := range []scratchStudy{largeStudy, smallStudy} {
		want[i] = s.once(t, mpi.NewBufPool())
	}
	// Both worlds start exporting together, so their folds overlap.
	shared := mpi.NewBufPool()
	var wg, ready sync.WaitGroup
	ready.Add(2)
	gate := func() { ready.Done(); ready.Wait() }
	var gots [2][]*Profile
	for i, s := range []scratchStudy{largeStudy, smallStudy} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gots[i] = s.run(t, shared, exports, gate)
		}()
	}
	wg.Wait()
	for i := range gots {
		for j, g := range gots[i] {
			if !reflect.DeepEqual(g, want[i]) {
				t.Errorf("world %d, export %d of %d: folding beside another world on one pool changed the profile", i, j+1, exports)
			}
		}
	}
}

// TestExportScratchAllocPin exports one world's profile once, then again, and
// counts the bytes the second export allocates (the fewest over three
// repeats): the result's maps, built exactly as replaying the fold's merges
// of the per-rank exports builds them, plus a little for the round. A scratch
// that the fold does not give back to the memo, or that the memo does not
// hand out again, is grown anew and fails it.
func TestExportScratchAllocPin(t *testing.T) {
	const repeats, slack = 3, 1 << 10
	s := scratchStudy{ranks: 4, seed: 13, names: []string{"gemm", "trsm", "syrk"}, dims: 40, configs: 2}
	var bytes [repeats]uint64
	var result *Profile
	exports := make([]*Profile, s.ranks)
	w := mpi.NewWorld(s.ranks, testMachine(0.05), s.seed)
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.3})
		s.work(c, p, cc)
		exports[c.Rank()] = p.ExportProfile()
		// The first export grows the memo's scratch and warms the round.
		p.GlobalProfile(0)
		for rep := range bytes {
			var before, after runtime.MemStats
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			g := p.GlobalProfile(0)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
				bytes[rep] = after.TotalAlloc - before.TotalAlloc
				result = g
			}
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var maps [repeats]uint64
	for rep := range maps {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay := &Profile{SchemaVersion: ProfileSchemaVersion}
		for _, e := range exports {
			replay.merge(e, true)
		}
		runtime.ReadMemStats(&after)
		maps[rep] = after.TotalAlloc - before.TotalAlloc
		if !reflect.DeepEqual(replay, result) {
			t.Fatal("replaying the fold's merges of the per-rank exports does not give the global profile")
		}
	}
	got, want := slices.Min(bytes[:]), slices.Min(maps[:])
	t.Logf("a warm export allocates %d B; the result's maps take %d B (%d kernels, %d path frequencies)",
		got, want, len(result.Kernels), len(result.PathFreqs))
	// Under -race the test still drives the reuse for the detector, but the
	// count is not ours.
	if got > want+slack && !raceEnabled {
		t.Errorf("a warm export allocates %d B, want at most the result's maps (%d B) plus %d B", got, want, slack)
	}
}

// TestMemoRidesThePool runs one keyed configuration in three worlds, each
// world under a reference first and a selective profiler after, as a sweep
// builds them: two worlds in turn on one buffer pool, then one on a fresh
// pool. The second world on the pool finds the first's memo there: its
// selective profiler adopts the table the first registered and the backing
// array of the records the first retired, while its reference leaves every
// rank's one slot for a retired arena as it was, full or empty. The fresh
// pool's world misses. Reports and global profiles are the same in all
// three.
func TestMemoRidesThePool(t *testing.T) {
	const ranks = 4
	cfg := ConfigKey("pool", 0)
	type world struct {
		rep  Report
		prof *Profile
		tab  *KernelTable
		// adopted and retired are each rank's first record slot in the
		// records its selective profiler adopted at New and retired at the
		// end; nil for none.
		adopted, retired [ranks]*kernelStats
		// before and after tell whether each rank's slot on the pool's memo
		// holds a retired arena before and after its reference is built and
		// retired; taken, whether it does once the selective profiler is.
		before, after, taken [ranks]bool
	}
	first := func(k []kernelStats) *kernelStats {
		if k = k[:cap(k)]; len(k) == 0 {
			return nil
		}
		return &k[0]
	}
	run := func(pool *mpi.BufPool) *world {
		out := &world{}
		memo := mpi.Pooled[kernelMemo](pool)
		held := func(r int) bool {
			memo.mu.Lock()
			defer memo.mu.Unlock()
			return r < len(memo.arenas) && !reflect.DeepEqual(memo.arenas[r], memoArena{})
		}
		w := mpi.NewWorld(ranks, testMachine(0.05), 7)
		w.SetBufPool(pool)
		err := w.Run(func(c *mpi.Comm) {
			r := c.Rank()
			work := func(p *Profiler) Report {
				p.StartConfigKeyed(true, cfg)
				c.Rekey(cfg)
				for d := 1; d <= 6; d++ {
					for range 3 {
						p.Kernel("gemm", d, d, d, 0, float64(d*d*d), func() {})
					}
				}
				return p.Report()
			}
			out.before[r] = held(r)
			ref, _ := NewReference(c)
			work(ref)
			ref.Retire()
			out.after[r] = held(r)
			p, _ := New(c, Options{Policy: Conditional, Eps: 0.3})
			out.taken[r] = held(r)
			out.adopted[r] = first(p.k)
			rep := work(p)
			g := p.GlobalProfile(0)
			if r == 0 {
				out.rep, out.prof, out.tab = rep, g, p.Table()
			}
			out.retired[r] = first(p.k)
			p.Retire()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	pool := mpi.NewBufPool()
	memo := mpi.Pooled[kernelMemo](pool)
	cold := run(pool)
	if h, m := memo.lookups(); h != 0 || m != 1 {
		t.Fatalf("the first world on the pool: %d hits and %d misses, want 0 and 1", h, m)
	}
	warm := run(pool)
	if h, m := memo.lookups(); h != 1 || m != 1 {
		t.Errorf("the second world on the pool: %d hits and %d misses in all, want 1 and 1", h, m)
	}
	if warm.tab != cold.tab {
		t.Error("the second world did not adopt the table the first registered")
	}
	for r := range ranks {
		if cold.retired[r] == nil || warm.adopted[r] != cold.retired[r] {
			t.Errorf("rank %d: the second world's records are not the ones the first retired", r)
		}
		for i, s := range []*world{cold, warm} {
			if s.after[r] != s.before[r] {
				t.Errorf("world %d rank %d: the reference changed whether the rank's slot holds an arena from %v to %v", i+1, r, s.before[r], s.after[r])
			}
			if s.taken[r] {
				t.Errorf("world %d rank %d: the selective profiler left a retired arena in the rank's slot", i+1, r)
			}
		}
	}
	if cold.before != [ranks]bool{} || warm.before != [ranks]bool{true, true, true, true} {
		t.Errorf("before each world's reference, the ranks' slots are full %v then %v, want all empty then all full", cold.before, warm.before)
	}

	fresh := mpi.NewBufPool()
	other := run(fresh)
	if h, m := mpi.Pooled[kernelMemo](fresh).lookups(); h != 0 || m != 1 {
		t.Errorf("a world on a fresh pool: %d hits and %d misses, want 0 and 1", h, m)
	}
	if other.tab == cold.tab {
		t.Error("a world on a fresh pool adopted the other pool's table")
	}
	for i, s := range []*world{warm, other} {
		if !reflect.DeepEqual(s.rep, cold.rep) || !reflect.DeepEqual(s.prof, cold.prof) {
			t.Errorf("world %d's report or profile differs from the first world's\n got %+v\nwant %+v", i+2, s.rep, cold.rep)
		}
	}
	if cold.prof.Samples() == 0 {
		t.Error("the selective profiler sampled nothing")
	}
}
