package critter

import "sync"

// KernelTable interns kernel signatures (Key) into dense uint32 ids. One
// table is shared by every rank of a profiled world (rank 0 creates it
// during Profiler construction and the others adopt it collectively), so a
// kernel id means the same signature on every rank and path frequency
// tables can travel between ranks as dense arrays instead of maps.
//
// Interning takes the write lock only the first time a signature is seen
// anywhere in the world; every other resolution takes the read lock. Ranks
// keep no private copy: the steady-state interception path asks the table
// whenever the signature differs from the rank's previous one. A memoized
// configuration adopts the table its first run published (KernelMemo), so
// its ranks find every signature already there. Ids are assigned in global
// first-seen order: within a world that follows the order its loop runs the
// ranks in, and a table a memo hands to worlds running at once on other
// workers also follows how those interleave. Nothing result-bearing may
// depend on id order, and nothing does: ids never
// leave the process, and every boundary artifact (PathFreqs, profiles,
// reports) is rekeyed by Key. A-priori counts never cross that boundary: a
// sweep's offline and a-priori passes run under one table, so
// SetAprioriFromPath keeps the global path counts by id.
type KernelTable struct {
	mu   sync.RWMutex
	ids  map[Key]uint32
	keys []Key
}

// NewKernelTable returns an empty table.
func NewKernelTable() *KernelTable {
	return &KernelTable{ids: make(map[Key]uint32)}
}

// Intern returns the dense id of k, assigning the next free id on first
// sight.
func (t *KernelTable) Intern(k Key) uint32 {
	if id, ok := t.lookup(k); ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := uint32(len(t.keys))
	t.ids[k] = id
	t.keys = append(t.keys, k)
	return id
}

// lookup returns the id of k without assigning one: ok is false when no
// rank has interned k.
func (t *KernelTable) lookup(k Key) (id uint32, ok bool) {
	t.mu.RLock()
	id, ok = t.ids[k]
	t.mu.RUnlock()
	return id, ok
}

// KeyOf returns the signature interned as id. It panics on an id the table
// never assigned.
func (t *KernelTable) KeyOf(id uint32) Key {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keys[id]
}

// view returns the signatures interned so far, indexed by id. The table
// only appends, so the slice stays valid while other ranks intern on: the
// entries it covers never change.
func (t *KernelTable) view() []Key {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keys
}

// Len returns how many distinct signatures the table has interned.
func (t *KernelTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.keys)
}
