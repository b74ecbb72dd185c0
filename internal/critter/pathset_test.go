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
