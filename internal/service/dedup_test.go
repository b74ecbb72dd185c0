package service

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"critter/internal/autotune"
)

// TestDedupCoalescesConcurrentSubmissions is the dedup acceptance test:
// eight identical concurrent submissions produce exactly one Tuner
// execution, eight byte-identical result envelopes, and eight complete
// event streams. The blocking workload pins the primary mid-run so every
// follower attaches while it is provably still executing.
func TestDedupCoalescesConcurrentSubmissions(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1, QueueSize: 16})
	defer closeNow(t, s)

	const n = 8
	const body = `{"workload":"block","eps":[0.25],"seed":7,"warmStart":false}`

	// Submit all eight concurrently. Dedup defaults to on.
	statuses := make([]JobStatus, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.SubmitJSON([]byte(body))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every submission names the same fingerprint; exactly one is the
	// primary, the other seven are deduped onto it.
	ids := map[string]bool{}
	var primary string
	deduped := 0
	for _, st := range statuses {
		if st.Fingerprint == "" || st.Fingerprint != statuses[0].Fingerprint {
			t.Fatalf("fingerprint mismatch: %+v vs %+v", st, statuses[0])
		}
		if ids[st.ID] {
			t.Fatalf("duplicate job ID %s", st.ID)
		}
		ids[st.ID] = true
		if st.Deduped {
			deduped++
			if st.DedupOf == "" {
				t.Errorf("deduped job %s has no DedupOf", st.ID)
			}
		} else {
			primary = st.ID
		}
	}
	if deduped != n-1 || primary == "" {
		t.Fatalf("got %d deduped of %d submissions (primary %q), want %d", deduped, n, primary, n-1)
	}
	for _, st := range statuses {
		if st.Deduped && st.DedupOf != primary {
			t.Errorf("job %s follows %s, want primary %s", st.ID, st.DedupOf, primary)
		}
	}

	// Attach a subscription to every job before releasing the gate, so
	// each stream must deliver the terminal event live.
	subs := make([]*Subscription, n)
	for i, st := range statuses {
		sub, ok := s.Subscribe(st.ID)
		if !ok {
			t.Fatalf("Subscribe(%s): unknown job", st.ID)
		}
		defer sub.Close()
		subs[i] = sub
	}

	close(gate)

	// All eight reach done, having run the Tuner exactly once.
	for _, st := range statuses {
		final := waitDone(t, s, st.ID)
		if final.State != StateDone {
			t.Fatalf("job %s finished %s (err %q)", st.ID, final.State, final.Error)
		}
	}
	if runs := s.TunerRuns(); runs != 1 {
		t.Errorf("executed %d Tuner runs for %d identical submissions, want exactly 1", runs, n)
	}

	// Every stream ends with a done event for its own job ID.
	for i, sub := range subs {
		sawDone := false
		timeout := time.After(time.Minute)
		for !sawDone {
			select {
			case ev, ok := <-sub.C:
				if !ok {
					t.Fatalf("stream %d (%s) closed before its done event", i, statuses[i].ID)
				}
				if ev.Job != statuses[i].ID {
					t.Errorf("stream %d carries event for %s, want %s", i, ev.Job, statuses[i].ID)
				}
				if ev.Type == "done" {
					sawDone = true
				}
			case <-timeout:
				t.Fatalf("stream %d (%s) never delivered a done event", i, statuses[i].ID)
			}
		}
		if d := sub.Dropped(); d != 0 {
			t.Errorf("stream %d dropped %d events", i, d)
		}
	}

	// All eight envelopes are byte-identical.
	ref := envelopeJSON(t, s, statuses[0].ID)
	for _, st := range statuses[1:] {
		if got := envelopeJSON(t, s, st.ID); !bytes.Equal(got, ref) {
			t.Errorf("envelope for %s differs from %s:\n%s\nvs\n%s", st.ID, statuses[0].ID, got, ref)
		}
	}

	// A ninth identical submission after completion is a memo hit: it is
	// born terminal with the same envelope and runs nothing.
	ninth, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatalf("memo submit: %v", err)
	}
	if !ninth.Deduped || ninth.State != StateDone {
		t.Fatalf("memo-hit status %+v, want deduped+done", ninth)
	}
	if got := envelopeJSON(t, s, ninth.ID); !bytes.Equal(got, ref) {
		t.Errorf("memoized envelope differs:\n%s\nvs\n%s", got, ref)
	}
	if runs := s.TunerRuns(); runs != 1 {
		t.Errorf("memo hit re-executed the Tuner (%d runs)", runs)
	}
}

// TestDedupFingerprintBoundaries: identical specs share a fingerprint and
// coalesce, and any material field change produces a fingerprint of its
// own and an execution of its own.
func TestDedupFingerprintBoundaries(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1, QueueSize: 16})
	defer closeNow(t, s)

	const base = `{"workload":"block","eps":[0.25],"seed":7,"warmStart":false}`
	a, err := s.SubmitJSON([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	// Key order and spelled-out defaults are not work identity.
	b, err := s.SubmitJSON([]byte(`{"seed":7,"warmStart":false,"workload":"block","scale":"default","eps":[0.25],"strategy":"exhaustive"}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || !b.Deduped || b.DedupOf != a.ID {
		t.Errorf("identical specs did not coalesce on one fingerprint: %+v %+v", a, b)
	}

	// Any material field change moves the fingerprint.
	seen := map[string]string{a.Fingerprint: "base"}
	ids := []string{a.ID, b.ID}
	for name, body := range map[string]string{
		"seed":     `{"workload":"block","eps":[0.25],"seed":8,"warmStart":false}`,
		"eps":      `{"workload":"block","eps":[0.5],"seed":7,"warmStart":false}`,
		"strategy": `{"workload":"block","eps":[0.25],"seed":7,"strategy":"random:3","warmStart":false}`,
		"warm":     `{"workload":"block","eps":[0.25],"seed":7,"warmStart":true}`,
	} {
		st, err := s.SubmitJSON([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[st.Fingerprint]; dup || st.Deduped {
			t.Errorf("%s collides with %s on fingerprint %s (deduped %v)", name, prev, st.Fingerprint, st.Deduped)
		}
		seen[st.Fingerprint] = name
		ids = append(ids, st.ID)
	}

	close(gate)
	for _, id := range ids {
		waitDone(t, s, id)
	}
}

// TestWarmSubmissionsCoalesceButNeverMemoize: an identical warm submission
// made while the first is queued coalesces onto it, but a warm job is
// never memoized — its output depends on the evolving profile store — so
// the same submission after the first finishes executes again, warm
// started from what the first learned.
func TestWarmSubmissionsCoalesceButNeverMemoize(t *testing.T) {
	gate := make(chan struct{})
	reg := blockingRegistry(gate)
	if err := reg.Register(tinyWorkload()); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: reg, Runners: 1})
	defer closeNow(t, s)

	// Occupy the one runner, so the first warm job stays queued.
	busy, err := s.SubmitJSON([]byte(`{"workload":"block"}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, busy.ID, StateRunning)
	const body = `{"workload":"tiny","eps":[0.5]}`
	first, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateQueued || !second.Deduped || second.DedupOf != first.ID {
		t.Fatalf("warm submission behind a queued twin: %+v, want deduped onto %+v", second, first)
	}

	close(gate)
	for _, id := range []string{busy.ID, first.ID, second.ID} {
		if st := waitDone(t, s, id); st.State != StateDone {
			t.Fatalf("job %s finished %s (err %q)", id, st.State, st.Error)
		}
	}
	if !bytes.Equal(envelopeJSON(t, s, first.ID), envelopeJSON(t, s, second.ID)) {
		t.Error("the coalesced warm job's envelope differs from its primary's")
	}
	if st, _ := s.Status(first.ID); st.WarmStart {
		t.Errorf("first tiny job applied a prior before any tiny job ran: %+v", st)
	}
	if runs := s.TunerRuns(); runs != 2 {
		t.Fatalf("%d Tuner runs for the busy job and one coalesced pair, want 2", runs)
	}

	third := submitWait(t, s, body)
	if third.Deduped || third.State != StateDone || !third.WarmStart {
		t.Errorf("warm resubmission after its twin finished: %+v, want a fresh warm-started execution", third)
	}
	if runs := s.TunerRuns(); runs != 3 {
		t.Errorf("%d Tuner runs after the warm resubmission, want 3", runs)
	}
}

// TestFollowerLifecycle pins what the README's Dedup paragraph promises a
// coalesced follower: canceling it detaches only it, and canceling the
// primary cancels the whole group.
func TestFollowerLifecycle(t *testing.T) {
	const body = `{"workload":"block","eps":[0.25],"seed":7,"warmStart":false}`
	// group submits a primary, waits for a runner to start it, then
	// submits n followers, and subscribes to all of them.
	group := func(t *testing.T, s *Scheduler, n int) ([]JobStatus, []*Subscription) {
		t.Helper()
		var jobs []JobStatus
		var subs []*Subscription
		for i := 0; i <= n; i++ {
			st, err := s.SubmitJSON([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				waitState(t, s, st.ID, StateRunning)
			}
			if i > 0 && (!st.Deduped || st.DedupOf != jobs[0].ID) {
				t.Fatalf("submission %d did not coalesce onto %s: %+v", i, jobs[0].ID, st)
			}
			sub, ok := s.Subscribe(st.ID)
			if !ok {
				t.Fatalf("Subscribe(%s): unknown job", st.ID)
			}
			t.Cleanup(sub.Close)
			jobs = append(jobs, st)
			subs = append(subs, sub)
		}
		return jobs, subs
	}
	// stream returns a subscription's whole history, replay and live, after
	// checking that every event carries the subscriber's own job ID.
	stream := func(t *testing.T, id string, sub *Subscription) []Event {
		t.Helper()
		evs := append([]Event(nil), sub.Past...)
		for sub.C != nil {
			select {
			case ev, open := <-sub.C:
				if !open {
					sub.C = nil
					continue
				}
				evs = append(evs, ev)
			case <-time.After(time.Minute):
				t.Fatalf("stream of %s never ended", id)
			}
		}
		for _, ev := range evs {
			if ev.Job != id {
				t.Errorf("stream of %s carries %+v", id, ev)
			}
		}
		return evs
	}
	last := func(evs []Event) string {
		if len(evs) == 0 {
			return ""
		}
		return evs[len(evs)-1].Type
	}

	t.Run("cancel follower", func(t *testing.T) {
		gate := make(chan struct{})
		s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
		defer closeNow(t, s)
		jobs, subs := group(t, s, 2)

		st, err := s.Cancel(jobs[1].ID)
		if err != nil || st.State != StateCanceled {
			t.Fatalf("cancel follower: %+v, %v", st, err)
		}
		if evs := stream(t, jobs[1].ID, subs[1]); last(evs) != "canceled" {
			t.Errorf("canceled follower's stream ends %q: %+v", last(evs), evs)
		}
		close(gate)
		for _, i := range []int{0, 2} {
			if final := waitDone(t, s, jobs[i].ID); final.State != StateDone {
				t.Errorf("job %s finished %s after a follower left", jobs[i].ID, final.State)
			}
			if evs := stream(t, jobs[i].ID, subs[i]); last(evs) != "done" {
				t.Errorf("stream of %s ends %q", jobs[i].ID, last(evs))
			}
		}
		if !bytes.Equal(envelopeJSON(t, s, jobs[0].ID), envelopeJSON(t, s, jobs[2].ID)) {
			t.Error("the remaining follower's envelope differs from the primary's")
		}
		if st, _ := s.Status(jobs[1].ID); st.State != StateCanceled {
			t.Errorf("detached follower ended %s", st.State)
		}
	})

	t.Run("cancel primary", func(t *testing.T) {
		gate := make(chan struct{})
		s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
		defer closeNow(t, s)
		jobs, subs := group(t, s, 2)

		if _, err := s.Cancel(jobs[0].ID); err != nil {
			t.Fatal(err)
		}
		close(gate)
		for i, st := range jobs {
			if final := waitDone(t, s, st.ID); final.State != StateCanceled {
				t.Errorf("job %s finished %s after its primary was canceled", st.ID, final.State)
			}
			if evs := stream(t, st.ID, subs[i]); last(evs) != "canceled" {
				t.Errorf("stream of %s ends %q", st.ID, last(evs))
			}
		}
	})

}

// waitDone waits for a job's terminal state with a test-friendly timeout.
func waitDone(t *testing.T, s *Scheduler, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// envelopeJSON returns a finished job's envelope bytes, for byte
// comparison.
func envelopeJSON(t *testing.T, s *Scheduler, id string) []byte {
	t.Helper()
	data, ok := s.Result(id)
	if !ok || data == nil {
		t.Fatalf("job %s has no result envelope", id)
	}
	return data
}

// resultEnvelope decodes a finished job's envelope.
func resultEnvelope(t *testing.T, s *Scheduler, id string) *autotune.Envelope {
	t.Helper()
	env, err := autotune.DecodeEnvelope(envelopeJSON(t, s, id))
	if err != nil {
		t.Fatalf("decode envelope of %s: %v", id, err)
	}
	return env
}
