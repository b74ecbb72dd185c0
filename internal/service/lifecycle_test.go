package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"critter/internal/autotune"
)

// TestNextTransitionTable enumerates the job state machine: every (state,
// event type) pair, 5 × 7, has an expected lifecycle or a rejection, and a
// rejection leaves the lifecycle as it was.
func TestNextTransitionTable(t *testing.T) {
	t0, at := time.Unix(100, 0), time.Unix(200, 0)
	env := &autotune.Envelope{Study: "s"}
	boom := errors.New("boom")

	// One lifecycle per state: a requeued job waiting for its second
	// attempt, a leased job one sweep into two, and the three outcomes.
	queued := lifecycle{state: StateQueued, sweepsTotal: 2, attempts: 1, started: t0}
	running := lifecycle{state: StateRunning, warmApplied: true, sweepsDone: 1, sweepsTotal: 2, started: t0, worker: "w-1", attempts: 1}
	from := map[State]lifecycle{
		StateQueued:   queued,
		StateRunning:  running,
		StateDone:     {state: StateDone, envelope: env, sweepsDone: 2, sweepsTotal: 2, started: t0, finished: t0, worker: "w-1", attempts: 1},
		StateFailed:   {state: StateFailed, err: boom, sweepsDone: 1, sweepsTotal: 2, started: t0, finished: t0, attempts: 3},
		StateCanceled: {state: StateCanceled, err: context.Canceled, sweepsTotal: 2, finished: t0},
	}
	// The step each event type proposes.
	steps := map[string]step{
		"queued":   {ev: Event{Type: "queued"}, at: at},
		"started":  {ev: Event{Type: "started", Worker: "w-2"}, at: at, warm: true},
		"sweep":    {ev: Event{Type: "sweep", Policy: "online", Eps: 0.5}, at: at},
		"requeued": {ev: Event{Type: "requeued", Worker: "w-1"}, at: at},
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
				// The first start wins: started stays t0.
				l.state, l.worker, l.warmApplied, l.attempts = StateRunning, "w-2", true, 2
			}),
			"sweep":    nil,
			"requeued": nil,
			"done":     nil,
			"failed":   nil,
			"canceled": with(queued, func(l *lifecycle) {
				l.state, l.err, l.finished = StateCanceled, context.Canceled, at
			}),
		},
		StateRunning: {
			"queued":  nil,
			"started": nil,
			"sweep":   with(running, func(l *lifecycle) { l.sweepsDone = 2 }),
			"requeued": with(running, func(l *lifecycle) {
				l.state, l.worker, l.sweepsDone = StateQueued, "", 0
			}),
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
	types := []string{"queued", "started", "sweep", "requeued", "done", "failed", "canceled"}
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
			case w == nil && got != cur:
				t.Errorf("(%s, %s) rejected but changed the lifecycle to %+v", state, typ, got)
			case w != nil && err != nil:
				t.Errorf("(%s, %s) rejected: %v", state, typ, err)
			case w != nil && got != *w:
				t.Errorf("(%s, %s) = %+v, want %+v", state, typ, got, *w)
			}
		}
	}
	if pairs != 35 {
		t.Errorf("table covers %d (state, event) pairs, want 35", pairs)
	}

	// The guards inside legal pairs.
	fresh := lifecycle{state: StateQueued, sweepsTotal: 2}
	if got, _ := next(fresh, steps["started"]); got.started != at || got.attempts != 1 {
		t.Errorf("first start: %+v, want started at %v, attempt 1", got, at)
	}
	full := running
	full.sweepsDone = 2
	if _, err := next(full, steps["sweep"]); err == nil {
		t.Error("a sweep past the grid's total was accepted")
	}
	if _, err := next(running, step{ev: Event{Type: "done"}, at: at}); err == nil {
		t.Error("done without an envelope was accepted")
	}
	local := running
	local.worker = ""
	if _, err := next(local, steps["requeued"]); err == nil {
		t.Error("a locally running job was requeued")
	}
}

// TestLeaseRejectsSweepOverflow: a worker reporting more sweeps than the
// job's grid holds gets a 400, and the job's progress is unchanged — the
// one-sweep block grid never shows 2/1.
func TestLeaseRejectsSweepOverflow(t *testing.T) {
	s := New(Config{Registry: blockingRegistry(make(chan struct{})), Runners: -1})
	defer closeNow(t, s)
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()

	st, err := s.SubmitJSON([]byte(`{"workload":"block","eps":[0.25],"warmStart":false}`))
	if err != nil {
		t.Fatal(err)
	}
	wid, _, err := s.RegisterWorker("w")
	if err != nil {
		t.Fatal(err)
	}
	if g, err := s.LeaseJob(wid); err != nil || g == nil {
		t.Fatalf("lease: %+v, %v", g, err)
	}
	post := func(sweeps int) int {
		evs := strings.TrimSuffix(strings.Repeat(`{"type":"sweep","policy":"conditional","eps":0.25,"executed":1},`, sweeps), ",")
		resp, err := ts.Client().Post(ts.URL+"/v1/workers/"+wid+"/jobs/"+st.ID+"/events", "application/json",
			strings.NewReader(`{"events":[`+evs+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct{ sweeps, code, done int }{
		{2, http.StatusBadRequest, 0}, // rejected whole: the first sweep does not land either
		{1, http.StatusNoContent, 1},
		{1, http.StatusBadRequest, 1},
	} {
		if code := post(tc.sweeps); code != tc.code {
			t.Errorf("posting %d sweeps: HTTP %d, want %d", tc.sweeps, code, tc.code)
		}
		if cur, _ := s.Status(st.ID); cur.State != StateRunning || cur.SweepsDone != tc.done || cur.SweepsTotal != 1 {
			t.Errorf("after posting %d sweeps: %s %d/%d, want running %d/1", tc.sweeps, cur.State, cur.SweepsDone, cur.SweepsTotal, tc.done)
		}
	}
}

// TestLeaseWithoutEnvelopeFails: a worker result with neither an envelope
// nor an error fails the job instead of finishing it done with nothing to
// serve.
func TestLeaseWithoutEnvelopeFails(t *testing.T) {
	s := New(Config{Registry: blockingRegistry(make(chan struct{})), Runners: -1})
	defer closeNow(t, s)
	st, err := s.SubmitJSON([]byte(`{"workload":"block","eps":[0.25],"warmStart":false}`))
	if err != nil {
		t.Fatal(err)
	}
	wid, _, err := s.RegisterWorker("w")
	if err != nil {
		t.Fatal(err)
	}
	if g, err := s.LeaseJob(wid); err != nil || g == nil {
		t.Fatalf("lease: %+v, %v", g, err)
	}
	if err := s.CompleteLease(wid, st.ID, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	final, _ := s.Status(st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "no envelope") {
		t.Errorf("envelope-less result: %s %q, want failed naming the missing envelope", final.State, final.Error)
	}
}

// TestFirstStartWins: a job leased, requeued when its lease expires, and
// then finished by a local runner keeps its lease's start time, so
// Finished − Started covers every attempt.
func TestFirstStartWins(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
	defer closeNow(t, s)

	// Occupy the one runner, so the second job waits for a worker.
	busy, err := s.SubmitJSON([]byte(`{"workload":"block","dedup":false}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, StateRunning)
	st, err := s.SubmitJSON([]byte(`{"workload":"block","eps":[0.5],"dedup":false}`))
	if err != nil {
		t.Fatal(err)
	}
	wid, _, err := s.RegisterWorker("w")
	if err != nil {
		t.Fatal(err)
	}
	if g, err := s.LeaseJob(wid); err != nil || g == nil || g.Job != st.ID {
		t.Fatalf("lease: %+v, %v", g, err)
	}
	leased, _ := s.Status(st.ID)
	s.expireLeases(time.Now().Add(2 * s.cfg.LeaseTTL))
	if cur, _ := s.Status(st.ID); cur.State != StateQueued {
		t.Fatalf("after the lease expired: %s, want queued", cur.State)
	}

	close(gate)
	final := waitDone(t, s, st.ID)
	if final.State != StateDone || final.Attempts != 2 {
		t.Fatalf("finished %s after %d attempts, want done after 2", final.State, final.Attempts)
	}
	if leased.Started.IsZero() || !final.Started.Equal(leased.Started) {
		t.Errorf("Started %v after the local run, want the lease's %v", final.Started, leased.Started)
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
	s := New(Config{Registry: blockingRegistry(make(chan struct{})), Runners: -1})
	defer closeNow(t, s)
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
