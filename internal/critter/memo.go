package critter

// Cross-config kernel memoization. A tuning run evaluates the same study
// configurations over and over — every (policy, eps) sweep after the first,
// a rung strategy's later rungs, warm service jobs after cold ones — and
// each would rebuild the same config-invariant state: the kernel-signature
// interner, every rank's per-kernel records and the archive's slabs.
// kernelMemo caches it, one per buffer pool (mpi.Pooled): every profiler
// finds the memo on its world's pool, so the memo lives as long as the pool
// the sweep executor threads through a worker's worlds. It is strictly
// observational: every result is byte-identical on a warm pool or a fresh
// one, since ids never leave the process and every result-bearing artifact
// is rekeyed by Key.
//
// Three things are memoized:
//
//   - Per-configuration kernel tables. The first profiler to finish a
//     configuration publishes its interner (Profiler.Report), keyed by the
//     caller-supplied configuration key (StartConfigKeyed) and the world
//     size. That is a selective run: a reference (NewReference) interns
//     nothing and neither looks up nor publishes. Every later profiler that
//     starts the same configuration on the pool adopts the published table
//     itself, so its steady-state intern path is a read-locked map hit: no
//     insert. Ids stay as compact as the configuration's active kernel set,
//     keeping the path-frequency table every snapshot copies small.
//
//   - Retired per-rank arenas. A profiler that will not be used again
//     (Profiler.Retire) donates its per-kernel records, path-frequency
//     buffers, and its archive's model, frequency and segment slabs back to
//     the memo; the next profiler of the same world rank on the pool adopts
//     them instead of growing fresh ones.
//
//   - The export fold's scratch profile. GlobalProfile's fold rekeys each
//     rank's archive into one scratch before pooling it into the result
//     (foldExports); it takes that scratch from the memo and gives it back
//     with its maps cleared, so a worker folds every sweep through one set
//     of Key-keyed maps instead of growing a fresh pair per sweep.
//
// The "memoized kernels" of Report and the sweep stats are not this cache:
// they count replays of the decision cache in each profiler's own kernel
// records (predCache in profiler.go).
//
// A memo is safe for concurrent use by the ranks of every world on its pool;
// the executor gives each worker a pool of its own, and within a world the
// ranks take the memo's mutex only at configuration boundaries and twice per
// export round. Its tables are bounded by the distinct (study, scale,
// configuration) triples its pool's worlds have run.

import (
	"hash/fnv"
	"sync"
)

// kernelMemo caches config-invariant profiler state across configurations,
// profilers, and sweeps. The zero value is an empty memo.
type kernelMemo struct {
	mu      sync.Mutex
	configs map[uint64]*KernelTable
	// arenas[r] holds the arenas retired by world rank r, for the next
	// profilers of rank r to adopt. Keyed by rank, not one shared stack: what
	// an arena holds — above all its path-table freelist, sized by its
	// owners' peak number of snapshots in flight — is then a function of one
	// rank's program over the worker's sweeps, not of which rank happened to
	// retire last. Arenas are filed by value, so a rank's stack keeps its
	// capacity and retiring allocates nothing.
	arenas [][]memoArena

	// tableHits/tableMisses count StartConfigKeyed lookups (rank-0 only,
	// one per configuration start).
	tableHits   int64
	tableMisses int64

	// scratch is the export fold's scratch profile (foldExports) between
	// folds, its maps empty; nil while a fold has it out.
	scratch *Profile
}

// memoArena is the recyclable per-rank state a retiring profiler donates:
// the records and their slot index (zeroed, length 0, capacity kept), the
// path-frequency table and its freelist of spare buffers (length 0, not
// zeroed — kernelCounts clears what it grows into), the archive (length 0:
// the model slab is overwritten as it refills, the frequency slab is stale
// and cleared as it regrows, the segment list pins no table), and the list
// of Isends awaiting Waitall (cleared, length 0).
type memoArena struct {
	k      []kernelStats
	slot   []uint32
	counts []int64
	free   countsFree
	arch   archive
	isends []isend
}

// ConfigKey derives the memo key for one configuration of a named study.
// Any deterministic hash works — the memo is observationally invisible, so
// even a collision only costs speed, never correctness — but the key must
// include the study identity: one pool's memo may serve sweeps of several
// studies. (StartConfigKeyed mixes in the world size, which a
// study's name does not carry across scales.)
func ConfigKey(study string, config int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(study))
	var b [8]byte
	for i := range b {
		b[i] = byte(config >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// lookup returns the interner published for a configuration key, nil when
// the configuration has not completed anywhere yet.
func (m *kernelMemo) lookup(key uint64) *KernelTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	tab := m.configs[key]
	if tab != nil {
		m.tableHits++
	} else {
		m.tableMisses++
	}
	return tab
}

// publish records tab as the interner of the configuration identified by
// key. First publisher wins: two worlds that run one configuration through
// one memo at once both miss, and whichever reports first owns the published
// table (their tables intern the same signature set, so the choice is
// invisible).
func (m *kernelMemo) publish(key uint64, tab *KernelTable) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.configs == nil {
		m.configs = make(map[uint64]*KernelTable)
	}
	if _, ok := m.configs[key]; !ok {
		m.configs[key] = tab
	}
}

// acquireArena pops an arena retired by world rank, reporting false when
// none is available.
func (m *kernelMemo) acquireArena(rank int) (memoArena, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank >= len(m.arenas) || len(m.arenas[rank]) == 0 {
		return memoArena{}, false
	}
	s := m.arenas[rank]
	n := len(s)
	a := s[n-1]
	s[n-1] = memoArena{}
	m.arenas[rank] = s[:n-1]
	return a, true
}

// releaseArena files a profiler's arena, retired by world rank, for reuse.
// The donor has already zeroed the records (see Profiler.Retire), so
// adoption is O(1).
func (m *kernelMemo) releaseArena(rank int, a memoArena) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank >= len(m.arenas) {
		m.arenas = append(m.arenas, make([][]memoArena, rank+1-len(m.arenas))...)
	}
	m.arenas[rank] = append(m.arenas[rank], a)
}

// lookups returns how many StartConfigKeyed lookups found a published
// configuration (and how many missed). Rank 0 performs one lookup per
// configuration start, so these count configurations, not ranks.
func (m *kernelMemo) lookups() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tableHits, m.tableMisses
}

// takeScratch hands the export fold the memo's scratch profile, its maps
// empty, and a fresh one when its scratch is out: two worlds folding through
// one memo at once never share a scratch.
func (m *kernelMemo) takeScratch() *Profile {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.scratch
	m.scratch = nil
	if s == nil {
		s = &Profile{}
	}
	return s
}

// giveScratch files the fold's scratch, its maps emptied, for the next fold.
// When another fold has filed one meanwhile, that one stays.
func (m *kernelMemo) giveScratch(s *Profile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.scratch == nil {
		m.scratch = s
	}
}
