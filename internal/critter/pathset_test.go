package critter

import (
	"testing"
)

// TestMergeIntMsgPreservesExec2 is the regression test for the combined
// Sendrecv exchange's second vote: the old merge rebuilt the message without
// Exec2, silently dropping the receive-kernel vote of any combined exchange
// folded through an allreduce. Either side voting must survive the fold.
func TestMergeIntMsgPreservesExec2(t *testing.T) {
	a := intMsg{Exec: false, Exec2: true}
	b := intMsg{Exec: true, Exec2: false}
	if got := mergeIntMsg(a, b); !got.Exec2 {
		t.Errorf("mergeIntMsg dropped a's Exec2 vote: %+v", got)
	}
	if got := mergeIntMsg(b, a); !got.Exec2 {
		t.Errorf("mergeIntMsg dropped b's Exec2 vote: %+v", got)
	}
	if got := mergeIntMsg(intMsg{}, intMsg{}); got.Exec2 {
		t.Errorf("mergeIntMsg invented an Exec2 vote: %+v", got)
	}
}

// TestFreshSnapshotIsSizedByContents: a copy that cannot use a recycled
// buffer allocates for the counts it holds, whatever capacity the source
// table inherited (arena capacities depend on which study a worker ran
// before, so sizing by them made a sweep's allocation depend on scheduling),
// and an empty active table still copies to an active one.
func TestFreshSnapshotIsSizedByContents(t *testing.T) {
	src := kernelCounts{vals: make([]int64, 0, 512)}
	for id := uint32(0); id < 40; id++ {
		src.incr(id)
	}
	for _, buf := range [][]int64{nil, make([]int64, 0, 8)} {
		snap := src.copyInto(buf)
		if len(snap.vals) != 40 || cap(snap.vals) != 40 {
			t.Errorf("fresh copy of 40 counts from a table of capacity 512: len %d cap %d", len(snap.vals), cap(snap.vals))
		}
	}
	if snap := src.copyInto(make([]int64, 0, 64)); cap(snap.vals) != 64 {
		t.Errorf("a recycled buffer that fits was not used: cap %d", cap(snap.vals))
	}
	empty := kernelCounts{vals: make([]int64, 0, 16)}
	if snap := empty.copyInto(nil); !snap.active() {
		t.Error("the copy of an empty active table is inactive")
	}
}
