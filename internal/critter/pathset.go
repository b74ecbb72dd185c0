package critter

// kernelCounts is the path frequency table K-tilde as a dense array indexed
// by KernelTable id. A table has exactly one owner at any time: the profiler
// counting into it, the internal message carrying it, or the freelist it
// waits on. It changes hands whole — a snapshot is a copy made into a
// recycled buffer that the message then owns, the receiver that adopts a
// table becomes its sole owner and files the table it replaces — so no holder
// ever has to ask whether somebody else can see its backing array, and a
// propagation round leaves no garbage behind.
type kernelCounts struct {
	// vals[id] is the number of appearances of kernel id along the current
	// sub-critical path. Indexed by the world-wide KernelTable. The
	// length is not part of the value: ids past the end count zero, and
	// whatever lies between len and cap is stale (see materialize).
	vals []int64
}

// active reports whether the table is carried at all (policies that do not
// propagate counts leave it nil).
func (k *kernelCounts) active() bool { return k.vals != nil }

// get returns kernel id's count (0 when never counted).
func (k *kernelCounts) get(id uint32) int64 {
	if int(id) >= len(k.vals) {
		return 0
	}
	return k.vals[id]
}

// incr counts one appearance of kernel id, growing the table first when it
// is too short.
func (k *kernelCounts) incr(id uint32) {
	if int(id) >= len(k.vals) {
		k.materialize(int(id) + 1)
	}
	k.vals[id]++
}

// materialize grows the table to hold n > len entries. Within capacity it
// extends in place and clears the exposed range: buffers are recycled
// without zeroing, so the tail of one that held a longer table still carries
// that table's counts. Past capacity it moves to an array of doubled
// capacity (repeated interning settles into amortized O(1)).
func (k *kernelCounts) materialize(n int) {
	old := len(k.vals)
	if n <= cap(k.vals) {
		k.vals = k.vals[:n]
		clear(k.vals[old:])
		return
	}
	vals := make([]int64, n, growCap(n, cap(k.vals)))
	copy(vals, k.vals)
	k.vals = vals
}

// reset clears every count in place for a new configuration.
func (k *kernelCounts) reset() { clear(k.vals) }

// copyInto returns a copy of the table held in buf's backing array when it
// is big enough, in a fresh one otherwise. The copy is active exactly when
// the table is. A fresh array is sized by what the copy holds, not by the
// capacity the table happens to have (capacities travel with recycled arenas
// from study to study and from rank to rank), or, given the interner tab the
// ids are of, by its whole id range so far: a path grows id by id as its
// configuration runs, and a snapshot sized to one length would be outgrown by
// the next. The range is read only then, since reading it takes a lock.
func (k *kernelCounts) copyInto(buf []int64, tab *KernelTable) kernelCounts {
	if !k.active() {
		return kernelCounts{}
	}
	if n := len(k.vals); buf == nil || cap(buf) < n {
		if tab != nil {
			n = max(n, tab.Len())
		}
		// make, not append: an empty table's copy must still be non-nil.
		buf = make([]int64, 0, n)
	}
	return kernelCounts{vals: append(buf[:0], k.vals...)}
}

// countsFree is a profiler's freelist of table buffers: what adopt replaced,
// waiting to carry the next snapshot. Confined to the owning rank. Contents
// of a filed buffer are stale, not zero.
//
// It has no bound of its own, because the protocol bounds it: every
// interception takes one snapshot and adopts one table, and an Isend's table
// is adopted at Waitall. So a profiler's free buffers plus its snapshots still
// awaiting an adoption always add up to the most snapshots it has had
// awaiting one at once — its peak in flight, a function of the rank's own
// program order — or to the freelist it adopted with a retired arena, if
// that was longer (the memo keeps a rank's arenas for the same rank). A
// snapshot makes a fresh table only when it raises that peak or finds the
// buffer too small, so a burst of Isends before one Waitall is paid for
// once, not per burst, and what the freelist holds does not depend on how
// far apart the ranks run.
type countsFree [][]int64

// get pops a buffer, nil when the list is empty.
func (f *countsFree) get() []int64 {
	n := len(*f)
	if n == 0 {
		return nil
	}
	buf := (*f)[n-1]
	(*f)[n-1] = nil
	*f = (*f)[:n-1]
	return buf
}

// put files the buffer of a table its owner is done with.
func (f *countsFree) put(k kernelCounts) {
	if k.active() {
		*f = append(*f, k.vals[:0])
	}
}

// Pathset is the per-rank container of critical-path costs (the pathset P of
// Figure 2). ExecTime models the execution time along the rank's current
// sub-critical path, including the model means of skipped kernels, so it is
// the configuration's execution-time prediction. The remaining metrics track
// per-metric critical paths, which may follow different execution paths than
// the time-critical one (Figure 1 of the paper): each is max-merged
// independently at every propagation point.
type Pathset struct {
	ExecTime float64 // predicted execution time along the critical path
	CompTime float64 // computation time along its own critical path
	CommTime float64 // communication time along its own critical path
	BSPComm  float64 // BSP communication cost (words moved)
	BSPSync  float64 // BSP synchronization cost (super-steps / messages)
	BSPComp  float64 // BSP computation cost (flops)

	// Kernels is the path frequency table K-tilde: for each kernel, the
	// number of appearances along the current sub-critical path. At a
	// collective it is adopted wholesale from whichever rank owns the
	// maximal ExecTime (Figure 2, lines 64-65); the two ends of a
	// point-to-point pair take each other's (adopt, which Profiler.complete
	// applies at every propagation point). Inactive unless counts propagate.
	Kernels kernelCounts
}

// mergePath combines two pathsets at a propagation point: metrics are
// max-merged elementwise, and the frequency table of the path with the
// larger ExecTime wins (the longest-path algorithm). Inputs are not
// mutated; the returned table is the winning input's, not a copy —
// propagate settles who owns what once the fold is done.
func mergePath(a, b Pathset) Pathset {
	out := Pathset{
		ExecTime: max(a.ExecTime, b.ExecTime),
		CompTime: max(a.CompTime, b.CompTime),
		CommTime: max(a.CommTime, b.CommTime),
		BSPComm:  max(a.BSPComm, b.BSPComm),
		BSPSync:  max(a.BSPSync, b.BSPSync),
		BSPComp:  max(a.BSPComp, b.BSPComp),
	}
	if b.ExecTime > a.ExecTime {
		out.Kernels = b.Kernels
	} else {
		out.Kernels = a.Kernels
	}
	return out
}

// intMsg is the internal message piggybacked on intercepted communication.
type intMsg struct {
	// Exec is whether the user communication kernel must actually execute:
	// a member's vote in a collective, an Isend's committed decision, which
	// the receiver follows, and in Sendrecv the issuer's vote for its send
	// kernel. A receiver's reply carries none.
	Exec bool
	// Exec2 is the issuer's vote for its receive kernel in Sendrecv's
	// combined exchange.
	Exec2 bool
	// Path is a snapshot of the sender's pathset; the message owns its
	// frequency table until a receiver adopts it.
	Path Pathset
}

// mergeIntMsg folds internal messages during the profiler's internal
// allreduce: any rank demanding execution forces it, and pathsets merge by
// the longest-path rule. Exec2 is merged too — today's allreduce path never
// carries it (the combined Sendrecv protocol is a pairwise exchange), but a
// lossy fold here would silently drop the receive vote if it ever did.
func mergeIntMsg(a, b intMsg) intMsg {
	return intMsg{
		Exec:  a.Exec || b.Exec,
		Exec2: a.Exec2 || b.Exec2,
		Path:  mergePath(a.Path, b.Path),
	}
}

// propagate is the finish of the profiler's internal allreduce (the
// PMPI_Allreduce with a custom operator in Figure 2): it folds the members'
// messages with mergeIntMsg in comm-rank order, once, on the last arriver,
// and hands every member the result. The winning frequency table — that of
// the first member holding the maximal ExecTime, as mergePath decides — stays
// with the member that sent it; every other member receives a copy written
// into the buffer it sent itself, so each rank leaves the round owning its
// table and the round frees nothing.
func propagate(members []intMsg) {
	acc, win := members[0], 0
	for i, m := range members[1:] {
		if m.Path.ExecTime > acc.Path.ExecTime {
			win = i + 1
		}
		acc = mergeIntMsg(acc, m)
	}
	winner := acc.Path.Kernels
	for i := range members {
		sent := members[i].Path.Kernels.vals
		members[i] = acc
		if i != win {
			members[i].Path.Kernels = winner.copyInto(sent, nil)
		}
	}
}
