package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestNextTransitionTable enumerates the job state machine: every (state,
// event type) pair, 5 × 6, has an expected lifecycle or a rejection, and a
// rejection leaves the lifecycle as it was. The two guards inside legal
// pairs close it, and no other test covers them: a sweep past the grid's
// total is rejected with the job's progress unchanged, and a done without
// an envelope is rejected, so no job finishes with nothing to serve.
func TestNextTransitionTable(t *testing.T) {
	t0, at := time.Unix(100, 0), time.Unix(200, 0)
	env := []byte(`{"study":"s"}`)
	boom := errors.New("boom")

	// One lifecycle per state: a job waiting for a runner, a job one sweep
	// into two, and the three outcomes.
	queued := lifecycle{state: StateQueued, sweepsTotal: 2}
	running := lifecycle{state: StateRunning, warmApplied: true, sweepsDone: 1, sweepsTotal: 2, started: t0}
	from := map[State]lifecycle{
		StateQueued:   queued,
		StateRunning:  running,
		StateDone:     {state: StateDone, envelope: env, sweepsDone: 2, sweepsTotal: 2, started: t0, finished: t0},
		StateFailed:   {state: StateFailed, err: boom, sweepsDone: 1, sweepsTotal: 2, started: t0, finished: t0},
		StateCanceled: {state: StateCanceled, err: context.Canceled, sweepsTotal: 2, finished: t0},
	}
	// The step each event type proposes.
	steps := map[string]step{
		"queued":   {ev: Event{Type: "queued"}, at: at},
		"started":  {ev: Event{Type: "started"}, at: at, warm: true},
		"sweep":    {ev: Event{Type: "sweep", Policy: "online", Eps: 0.5}, at: at},
		"done":     {ev: Event{Type: "done"}, at: at, envelope: env},
		"failed":   {ev: Event{Type: "failed"}, at: at, err: boom},
		"canceled": {ev: Event{Type: "canceled"}, at: at, err: context.Canceled},
	}
	with := func(lc lifecycle, edit func(*lifecycle)) *lifecycle {
		edit(&lc)
		return &lc
	}
	// want[state][type] is the lifecycle after the step; nil is a rejection.
	want := map[State]map[string]*lifecycle{
		StateQueued: {
			"queued": nil,
			"started": with(queued, func(l *lifecycle) {
				l.state, l.warmApplied, l.started = StateRunning, true, at
			}),
			"sweep":  nil,
			"done":   nil,
			"failed": nil,
			"canceled": with(queued, func(l *lifecycle) {
				l.state, l.err, l.finished = StateCanceled, context.Canceled, at
			}),
		},
		StateRunning: {
			"queued":  nil,
			"started": nil,
			"sweep":   with(running, func(l *lifecycle) { l.sweepsDone = 2 }),
			"done": with(running, func(l *lifecycle) {
				l.state, l.envelope, l.finished = StateDone, env, at
			}),
			"failed": with(running, func(l *lifecycle) {
				l.state, l.err, l.finished = StateFailed, boom, at
			}),
			"canceled": with(running, func(l *lifecycle) {
				l.state, l.err, l.finished = StateCanceled, context.Canceled, at
			}),
		},
	}
	types := []string{"queued", "started", "sweep", "done", "failed", "canceled"}
	for _, terminal := range []State{StateDone, StateFailed, StateCanceled} {
		// A terminal job never changes again.
		want[terminal] = map[string]*lifecycle{}
		for _, typ := range types {
			want[terminal][typ] = nil
		}
	}

	pairs := 0
	for _, state := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		for _, typ := range types {
			w, ok := want[state][typ]
			if !ok {
				t.Errorf("(%s, %s): no expectation", state, typ)
				continue
			}
			pairs++
			cur := from[state]
			got, err := next(cur, steps[typ])
			switch {
			case w == nil && err == nil:
				t.Errorf("(%s, %s) accepted: %+v", state, typ, got)
			case w == nil && !reflect.DeepEqual(got, cur):
				t.Errorf("(%s, %s) rejected but changed the lifecycle to %+v", state, typ, got)
			case w != nil && err != nil:
				t.Errorf("(%s, %s) rejected: %v", state, typ, err)
			case w != nil && !reflect.DeepEqual(got, *w):
				t.Errorf("(%s, %s) = %+v, want %+v", state, typ, got, *w)
			}
		}
	}
	if pairs != 30 {
		t.Errorf("table covers %d (state, event) pairs, want 30", pairs)
	}

	// The guards inside legal pairs.
	full := running
	full.sweepsDone = 2
	if _, err := next(full, steps["sweep"]); err == nil {
		t.Error("a sweep past the grid's total was accepted")
	}
	if _, err := next(running, step{ev: Event{Type: "done"}, at: at}); err == nil {
		t.Error("done without an envelope was accepted")
	}
}

// TestFollowerSharesItsExecution: a follower is a name on its primary's
// execution, so it serves the execution's span trace, and a waiter on a
// follower wakes when that follower alone is canceled.
func TestFollowerSharesItsExecution(t *testing.T) {
	const body = `{"workload":"block","eps":[0.5],"warmStart":false}`
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
	defer closeNow(t, s)

	p, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, p.ID, StateRunning)
	var followers []JobStatus
	for i := 0; i < 2; i++ {
		f, err := s.SubmitJSON([]byte(body))
		if err != nil || f.DedupOf != p.ID {
			t.Fatalf("follower %d: %+v, %v", i, f, err)
		}
		followers = append(followers, f)
	}

	// A waiter on the second follower wakes when that follower is canceled,
	// while the execution it left is still blocked.
	waited := make(chan JobStatus, 1)
	go func() {
		st, err := s.Wait(context.Background(), followers[1].ID)
		if err != nil {
			t.Error(err)
		}
		waited <- st
	}()
	if _, err := s.Cancel(followers[1].ID); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-waited:
		if st.State != StateCanceled {
			t.Errorf("waiter on the canceled follower saw %s", st.State)
		}
	case <-time.After(time.Minute):
		t.Fatal("Wait on a canceled follower never returned")
	}

	close(gate)
	waitDone(t, s, p.ID)
	pe, _, _ := s.Trace(p.ID)
	fe, _, ok := s.Trace(followers[0].ID)
	if !ok || len(pe) == 0 || !reflect.DeepEqual(pe, fe) {
		t.Errorf("follower's trace has %d events, the primary's %d; want the same events", len(fe), len(pe))
	}
}

// TestNoFollowerOfAFinishedExecution: the terminal transition and the
// in-flight registration change under one lock, so an identical
// submission after a canceled primary starts a new execution instead of
// joining the finished one.
func TestNoFollowerOfAFinishedExecution(t *testing.T) {
	const body = `{"workload":"block","eps":[0.5],"warmStart":false}`
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
	defer closeNow(t, s)
	defer close(gate)
	// Occupy the one runner, so the primary is still queued when canceled.
	busy, err := s.SubmitJSON([]byte(`{"workload":"block"}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, StateRunning)
	p, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Cancel(p.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel: %+v, %v", st, err)
	}
	again, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.State != StateQueued {
		t.Errorf("resubmission after a canceled primary: %+v, want a new queued job", again)
	}
}
