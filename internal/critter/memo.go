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
//   - Per-configuration kernel tables. The first profiler to start a
//     configuration makes its interner and registers it at once, keyed by
//     the caller-supplied configuration key (StartConfigKeyed) and the world
//     size (kernelMemo.table). That is a selective run: a reference
//     (NewReference) interns nothing and never asks. Every later profiler
//     that starts the same configuration on the pool adopts the registered
//     table itself, so its steady-state intern path is a read-locked map
//     hit: no insert. Ids stay as compact as the configuration's active
//     kernel set, keeping the path-frequency table every snapshot copies
//     small.
//
//   - Retired per-rank arenas. A profiler that will not be used again
//     (Profiler.Retire) donates its memoArena — per-kernel records,
//     path-frequency buffers, archive slabs, Isend list — back to the memo;
//     the next profiler of the same world rank on the pool adopts it
//     instead of growing fresh state.
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

	"critter/internal/channel"
)

// kernelMemo caches config-invariant profiler state across configurations,
// profilers, and sweeps. The zero value is an empty memo.
type kernelMemo struct {
	mu      sync.Mutex
	configs map[uint64]*KernelTable
	// arenas[r] is the arena world rank r retired last, for the next
	// profiler of rank r to adopt (empty when it holds none). One per rank,
	// not one shared stack: what an arena holds — above all its path-table
	// freelist, sized by its owners' peak number of snapshots in flight — is
	// then a function of one rank's program over the worker's sweeps, not of
	// which rank happened to retire last. A sweep retires each rank's
	// profiler before the next world on the pool starts, so one slot per
	// rank suffices.
	arenas []memoArena

	// tableHits/tableMisses count StartConfigKeyed lookups (rank-0 only,
	// one per configuration start).
	tableHits   int64
	tableMisses int64

	// scratch is the export fold's scratch profile (foldExports) between
	// folds, its maps empty; nil while a fold has it out.
	scratch *Profile
}

// memoArena is a rank's recyclable state: what a profiler adopts at New and
// donates at Retire (recycled). The path-frequency table it counts into rides
// on free: Retire files it last, and New takes it off first.
type memoArena struct {
	// k holds a record per kernel this rank has touched, in the order it
	// touched them; slot[id] is 1 + the index in k of id's record, 0 for an
	// id it has not, so each other rank's id costs it 4 bytes, not a record.
	// A reference keeps none: every interception hands out scratch, which
	// stays the zero record (record).
	k    []kernelStats
	slot []uint32
	// cover[i] is the aggregate channel over which k[i]'s statistics have
	// been propagated (the eager policy's coverage, eager.go). Only an eager
	// profiler grows it (growCover); every other policy leaves it empty.
	cover []channel.Channel
	// free recycles path-frequency buffers between adopt, which files the
	// table it replaces, and snapshot, which copies into one (pathset.go).
	// Filed buffers are stale, not zero: a table clears what it grows into.
	free countsFree
	// arch is what StartConfig has set aside of the configurations before
	// the current one, so ExportProfile covers everything the run learned
	// (archive.go).
	arch archive
	// isends lists the Isends whose replies the next Waitall consumes, in
	// posting order (comm.go).
	isends []isend
}

// recycled returns the arena emptied for the next profiler of its rank:
// records, slot index, coverage and Isend list zeroed at length 0 with their
// capacity kept, the freelist as it is, the archive recycled.
func (a *memoArena) recycled() memoArena {
	clear(a.k)
	clear(a.slot)
	clear(a.cover)
	clear(a.isends)
	return memoArena{
		k: a.k[:0], slot: a.slot[:0], cover: a.cover[:0],
		free: a.free, arch: a.arch.recycled(), isends: a.isends[:0],
	}
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

// table returns the interner registered for a configuration key, making and
// registering one when the key has none: the first profiler to start a
// configuration owns its table from the start, and every later one, in this
// world or another on the pool, interns into the same.
func (m *kernelMemo) table(key uint64) *KernelTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tab := m.configs[key]; tab != nil {
		m.tableHits++
		return tab
	}
	m.tableMisses++
	if m.configs == nil {
		m.configs = make(map[uint64]*KernelTable)
	}
	tab := NewKernelTable()
	m.configs[key] = tab
	return tab
}

// takeArena takes the arena world rank retired last, the zero arena when it
// holds none.
func (m *kernelMemo) takeArena(rank int) memoArena {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank >= len(m.arenas) {
		return memoArena{}
	}
	a := m.arenas[rank]
	m.arenas[rank] = memoArena{}
	return a
}

// putArena files the arena world rank retires, already recycled, for the
// next profiler of the rank.
func (m *kernelMemo) putArena(rank int, a memoArena) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank >= len(m.arenas) {
		m.arenas = append(m.arenas, make([]memoArena, rank+1-len(m.arenas))...)
	}
	m.arenas[rank] = a
}

// lookups returns how many StartConfigKeyed lookups found a registered
// table (and how many missed and made one). Rank 0 performs one lookup per
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
