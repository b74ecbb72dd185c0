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
// sizes through one memo, the way a study keeps its name from quick to
// default scale: each size publishes and adopts its own table, so a run at
// one scale never interns into the other's.
func TestMemoKeepsWorldSizesApart(t *testing.T) {
	memo := NewKernelMemo()
	cfg := ConfigKey("study", 3)
	for i, step := range []struct {
		ranks        int
		hits, misses int64
	}{
		{2, 0, 1}, // first run anywhere: publishes
		{4, 0, 2}, // same key, other world size: a table of its own
		{2, 1, 2}, // adopts what the 2-rank run published
		{4, 2, 2}, // adopts what the 4-rank run published
	} {
		w := mpi.NewWorld(step.ranks, testMachine(0.05), 1)
		if err := w.Run(func(c *mpi.Comm) {
			p, _ := New(c, Options{Policy: Conditional, Eps: 0.3, Memo: memo})
			p.StartConfigKeyed(true, cfg)
			p.Kernel("gemm", 4, 4, 4, 0, 64, func() {})
			p.Report()
			p.Retire()
		}); err != nil {
			t.Fatal(err)
		}
		if h, m := memo.TableHits(); h != step.hits || m != step.misses {
			t.Errorf("run %d (%d ranks): %d hits and %d misses, want %d and %d",
				i+1, step.ranks, h, m, step.hits, step.misses)
		}
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

// run executes the study on a fresh world with memo attached to every rank
// (nil for none) and returns root's global profile after each of exports
// exports, nil when the world fails; every rank retires its profiler at the
// end, as a sweep does. A non-nil gate is called on rank 0 between the work
// and the exports.
func (s scratchStudy) run(t *testing.T, memo *KernelMemo, exports int, gate func()) []*Profile {
	t.Helper()
	out := make([]*Profile, exports)
	w := mpi.NewWorld(s.ranks, testMachine(0.05), s.seed)
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.3, Extrapolate: s.extrap, Memo: memo})
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
func (s scratchStudy) once(t *testing.T, memo *KernelMemo) *Profile {
	t.Helper()
	out := s.run(t, memo, 1, nil)
	if out == nil {
		t.FailNow()
	}
	return out[0]
}

// TestExportScratchLeaksNothing folds a large export through one memo, then a
// smaller one of another study and world size: the second must equal the same
// export made with a fresh memo and with none, so nothing the large fold left
// in the memo's scratch reaches a later result. A last leg folds two studies
// through one memo at once, each world exporting several times.
func TestExportScratchLeaksNothing(t *testing.T) {
	memo := NewKernelMemo()
	large := largeStudy.once(t, memo)
	if len(large.Kernels) == 0 || len(large.PathFreqs) == 0 || len(large.Families) == 0 {
		t.Fatalf("the large export fills %d kernels, %d path frequencies and %d families, want every map used",
			len(large.Kernels), len(large.PathFreqs), len(large.Families))
	}
	scratch := memo.scratch
	if scratch == nil {
		t.Fatal("the fold did not give its scratch back to the memo")
	}
	got := smallStudy.once(t, memo)
	if memo.scratch != scratch {
		t.Error("the second fold did not reuse the memo's scratch")
	}
	if len(scratch.Kernels)+len(scratch.Families)+len(scratch.PathFreqs) != 0 {
		t.Error("the memo holds a scratch with entries left in it")
	}
	for _, want := range []struct {
		what string
		memo *KernelMemo
	}{{"a fresh memo", NewKernelMemo()}, {"no memo", nil}} {
		if w := smallStudy.once(t, want.memo); !reflect.DeepEqual(got, w) {
			t.Errorf("after a large fold, the small export differs from the one made with %s\n got %+v\nwant %+v",
				want.what, got, w)
		}
	}

	const exports = 8
	var want [2]*Profile
	for i, s := range []scratchStudy{largeStudy, smallStudy} {
		want[i] = s.once(t, nil)
	}
	// Both worlds start exporting together, so their folds overlap.
	shared := NewKernelMemo()
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
				t.Errorf("world %d, export %d of %d: folding beside another world on one memo changed the profile", i, j+1, exports)
			}
		}
	}
}

// TestExportScratchAllocPin exports one world's profile through a memo once,
// then again, and counts the bytes the second export allocates (the fewest
// over three repeats): the result's maps, built exactly as replaying the
// fold's merges of the per-rank exports builds them, plus a little for the
// round. A scratch that the fold does not give back, or that the memo does
// not hand out again, is grown anew and fails it.
func TestExportScratchAllocPin(t *testing.T) {
	const repeats, slack = 3, 1 << 10
	s := scratchStudy{ranks: 4, seed: 13, names: []string{"gemm", "trsm", "syrk"}, dims: 40, configs: 2}
	var bytes [repeats]uint64
	var result *Profile
	exports := make([]*Profile, s.ranks)
	w := mpi.NewWorld(s.ranks, testMachine(0.05), s.seed)
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.3, Memo: NewKernelMemo()})
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
