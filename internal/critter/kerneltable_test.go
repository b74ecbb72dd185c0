package critter

import (
	"sync"
	"testing"

	"critter/internal/mpi"
)

// TestKernelTableInterning covers the basic intern/resolve contract.
func TestKernelTableInterning(t *testing.T) {
	tab := NewKernelTable()
	k1 := CompKey("gemm", 8, 8, 8, 0)
	k2 := CommKey("bcast", 64, 8, 1)
	id1 := tab.Intern(k1)
	id2 := tab.Intern(k2)
	if id1 == id2 {
		t.Fatal("distinct keys interned to the same id")
	}
	if got := tab.Intern(k1); got != id1 {
		t.Errorf("re-interning changed the id: %d vs %d", got, id1)
	}
	if tab.KeyOf(id1) != k1 || tab.KeyOf(id2) != k2 {
		t.Error("KeyOf does not invert Intern")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

// TestKernelTableConcurrentIntern hammers one shared table from many
// goroutines (as the ranks of a world do) and checks every rank resolves
// every key to one consistent id.
func TestKernelTableConcurrentIntern(t *testing.T) {
	tab := NewKernelTable()
	const ranks, keys = 16, 200
	ids := make([][]uint32, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ids[r] = make([]uint32, keys)
			for i := 0; i < keys; i++ {
				// Interleave orders per rank so assignment races happen.
				i := (i*7 + r*13) % keys
				ids[r][i] = tab.Intern(CompKey("k", i, 0, 0, 0))
			}
		}(r)
	}
	wg.Wait()
	if tab.Len() != keys {
		t.Fatalf("table interned %d keys, want %d", tab.Len(), keys)
	}
	for r := 1; r < ranks; r++ {
		for i := 0; i < keys; i++ {
			if ids[r][i] != ids[0][i] {
				t.Fatalf("rank %d resolved key %d to id %d, rank 0 to %d", r, i, ids[r][i], ids[0][i])
			}
		}
	}
	for i := 0; i < keys; i++ {
		if got := tab.KeyOf(ids[0][i]); got != CompKey("k", i, 0, 0, 0) {
			t.Fatalf("KeyOf(%d) = %v, want key %d", ids[0][i], got, i)
		}
	}
}

// TestRanksShareOneInterner runs a 16-rank world whose ranks see the same
// signatures in different orders. On a memo miss every rank resolves each
// signature to the same id through the world's one table, and back again.
// The configuration's key is then reused for a run that also sees signatures
// the registered table lacks, as a memo-key collision would: the run adopts
// the registered table object itself, and the new signatures' ids, at or past
// n, resolve through it, in KeyOf and in modelOf.
func TestRanksShareOneInterner(t *testing.T) {
	const ranks, n, extra = 16, 12, 4
	keyOf := func(i int) Key { return CompKey("gemm", i+1, i+1, i+1, 0) }
	ck := ConfigKey("interner", 0)
	type seen struct {
		tab     *KernelTable
		ids     map[Key]uint32
		adopted *KernelTable   // the colliding run's table
		past    map[Key]uint32 // ids at or past n in that run
		counts  map[Key]int64  // Samples of every signature in that run
	}
	got := make([]seen, ranks)
	w := mpi.NewWorld(ranks, testMachine(0.05), 3)
	err := w.Run(func(c *mpi.Comm) {
		r := c.Rank()
		p, _ := New(c, Options{Policy: Conditional, Eps: 0.25})
		// Every rank runs the signatures in an order of its own, so ids are
		// assigned in whatever order the ranks race to them.
		run := func(m int) {
			for j := 0; j < m; j++ {
				d := (j*5+r*7)%m + 1
				p.Kernel("gemm", d, d, d, 0, float64(d*d*d), func() {})
			}
		}
		p.StartConfigKeyed(true, ck)
		run(n)
		p.Report()
		s := seen{tab: p.Table(), ids: map[Key]uint32{}}
		for _, ks := range p.k {
			s.ids[p.tab.KeyOf(ks.id)] = ks.id
		}
		p.StartConfigKeyed(true, ck)
		run(n + extra)
		s.adopted = p.Table()
		s.past, s.counts = map[Key]uint32{}, map[Key]int64{}
		for _, ks := range p.k {
			if ks.id >= uint32(n) {
				s.past[p.tab.KeyOf(ks.id)] = ks.id
			}
		}
		for i := 0; i < n+extra; i++ {
			s.counts[keyOf(i)] = p.Samples(keyOf(i))
		}
		p.Report()
		got[r] = s
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := mpi.Pooled[kernelMemo](w.BufPoolOf()).lookups(); hits != 1 || misses != 1 {
		t.Fatalf("memo: %d hits and %d misses, want the colliding run's 1 and the first run's 1", hits, misses)
	}
	tab := got[0].tab
	for r, s := range got {
		if s.tab != tab {
			t.Errorf("rank %d interns into a table of its own", r)
		}
		if len(s.ids) != n {
			t.Errorf("rank %d resolved %d signatures, want %d", r, len(s.ids), n)
		}
		for i := 0; i < n; i++ {
			id, ok := s.ids[keyOf(i)]
			if want := got[0].ids[keyOf(i)]; !ok || id != want {
				t.Errorf("rank %d resolved %v to id %d (found %v), rank 0 to %d", r, keyOf(i), id, ok, want)
			}
		}
		if s.adopted != tab {
			t.Errorf("rank %d: the colliding run interns into %p, not the registered table %p", r, s.adopted, tab)
		}
		if len(s.past) != extra {
			t.Errorf("rank %d resolved %d signatures at or past id %d, want %d", r, len(s.past), n, extra)
		}
		for i := n; i < n+extra; i++ {
			id, ok := s.past[keyOf(i)]
			if want := got[0].past[keyOf(i)]; !ok || id != want || tab.KeyOf(id) != keyOf(i) {
				t.Errorf("rank %d resolved %v past the first run's ids to id %d (found %v), rank 0 to %d", r, keyOf(i), id, ok, want)
			}
		}
		for i := 0; i < n+extra; i++ {
			if c := s.counts[keyOf(i)]; c != 1 {
				t.Errorf("rank %d: modelOf(%v) holds %d samples, want the run's 1", r, keyOf(i), c)
			}
		}
	}
}

// TestRecordsOnlyForTouchedKernels: in an 8-rank world whose four pairs
// exchange at four distinct strides (4, 1, 3 and 2), every rank touches one
// computation kernel, the world's barrier and its own pair's send and
// receive, while the world's table holds every pair's. Each rank keeps a
// record for exactly the four it touched, its slot index maps each record's
// id back to it and marks no other id, and another pair's signature reads as
// unprofiled.
func TestRecordsOnlyForTouchedKernels(t *testing.T) {
	const ranks = 8
	partner := [ranks]int{4, 2, 1, 6, 0, 7, 3, 5}
	w := mpi.NewWorld(ranks, testMachine(0.05), 11)
	err := w.Run(func(c *mpi.Comm) {
		p, cc := New(c, Options{Policy: Online, Eps: 0.25})
		buf, out := make([]float64, 8), make([]float64, 8)
		for range 3 {
			p.Kernel("gemm", 4, 4, 4, 0, 128, func() {})
			cc.Sendrecv(partner[c.Rank()], 0, buf, out)
			cc.Barrier()
		}
		r, tab := c.Rank(), p.Table()
		if n := tab.Len(); p.KernelCount() != 4 || len(p.k) != p.KernelCount() || n != 2+2*4 {
			t.Errorf("rank %d: %d records for %d kernels in a table of %d, want 4 records of 10",
				r, len(p.k), p.KernelCount(), n)
		}
		marked := 0
		for _, s := range p.slot {
			if s != 0 {
				marked++
			}
		}
		if marked != len(p.k) {
			t.Errorf("rank %d: the slot index marks %d ids for %d records", r, marked, len(p.k))
		}
		for i, ks := range p.k {
			if p.slot[ks.id] != uint32(i+1) {
				t.Errorf("rank %d: record %d (id %d) has slot %d", r, i, ks.id, p.slot[ks.id])
			}
		}
		// Ranks 1 and 2 are the one pair at stride 1.
		stride1 := commKey(opSend, len(buf), 2, 1)
		if got, want := p.Samples(stride1) != 0, r == 1 || r == 2; got != want {
			t.Errorf("rank %d: the stride-1 send profiled %v, want %v", r, got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
