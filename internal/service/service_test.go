package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
	"critter/internal/workload"
)

// submitWait submits a JSON job and waits for its terminal state.
func submitWait(t *testing.T, s *Scheduler, body string) JobStatus {
	t.Helper()
	st, err := s.SubmitJSON([]byte(body))
	if err != nil {
		t.Fatalf("SubmitJSON(%s): %v", body, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait(%s): %v", st.ID, err)
	}
	return final
}

// closeNow shuts a scheduler down with a short deadline.
func closeNow(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestWarmStartAcrossJobs is the service-level acceptance test: two
// sequential jobs on the same workload, where the second warm-starts from
// the ProfileStore's merged profile of the first and executes measurably
// fewer kernels.
func TestWarmStartAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	s := New(Config{Runners: 1})
	defer closeNow(t, s)

	const body = `{"workload":"candmc","scale":"quick","policies":["online"],"eps":[0.125],"seed":11,"extrapolate":true}`

	cold := submitWait(t, s, body)
	if cold.State != StateDone {
		t.Fatalf("cold job state %s (err %q)", cold.State, cold.Error)
	}
	if cold.WarmStart {
		t.Error("first job claims a warm start from an empty store")
	}
	if got := s.Store().Workloads(); len(got) != 1 || got[0] != "candmc" {
		t.Fatalf("store holds %v after the first job, want [candmc]", got)
	}

	warm := submitWait(t, s, body)
	if warm.State != StateDone {
		t.Fatalf("warm job state %s (err %q)", warm.State, warm.Error)
	}
	if !warm.WarmStart {
		t.Error("second job did not warm-start from the store")
	}

	coldEnv := resultEnvelope(t, s, cold.ID)
	warmEnv := resultEnvelope(t, s, warm.ID)
	coldExec := coldEnv.Result.Sweeps[0][0].Executed
	warmExec := warmEnv.Result.Sweeps[0][0].Executed
	if coldExec == 0 {
		t.Fatal("cold job executed no kernels")
	}
	if warmExec >= coldExec {
		t.Errorf("warm-started job executed %d kernels, want fewer than the cold job's %d", warmExec, coldExec)
	}
	t.Logf("cold executed %d, warm executed %d (%.1f%%)", coldExec, warmExec, 100*float64(warmExec)/float64(coldExec))

	// The warm job's envelope records the prior it was seeded with.
	if warmEnv.Prior == nil || warmEnv.Prior.Kernels == 0 {
		t.Errorf("warm envelope's prior summary is empty: %+v", warmEnv.Prior)
	}
}

// blockingRegistry builds a registry with one tiny workload whose study
// blocks until gate is closed, for queue/cancellation tests.
func blockingRegistry(gate chan struct{}) *workload.Registry {
	reg := workload.NewRegistry()
	err := reg.Register(workload.Workload{
		Name:        "block",
		Description: "test workload that blocks until released",
		Build: func(s autotune.Scale) autotune.Study {
			return autotune.Study{
				Name: "block",
				// Two configurations: cancellation is observed at
				// configuration boundaries, so a canceled sweep needs a
				// boundary after the blocking first config to land on.
				Space:      autotune.NewSpace(autotune.IntsDim("v", 0, 1)),
				WorldSize:  1,
				Policies:   []critter.Policy{critter.Conditional},
				ResetStats: true,
				Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
					<-gate
				},
			}
		},
	})
	if err != nil {
		panic(err)
	}
	return reg
}

// TestServiceEnvelopeIsTheTunersGrid pins a job's envelope to the Tuner:
// on a grid with a repeated tolerance and a policy whose every run panics,
// the envelope's result grid marshals byte-equal to Tuner.Run's for the
// same spec, and the job's error lists the failed sweeps as Tuner.Run
// does, in grid order.
func TestServiceEnvelopeIsTheTunersGrid(t *testing.T) {
	reg := workload.NewRegistry()
	err := reg.Register(workload.Workload{
		Name:        "grid",
		Description: "test workload whose online runs panic",
		Build: func(autotune.Scale) autotune.Study {
			return autotune.Study{
				Name:      "grid",
				Space:     autotune.NewSpace(autotune.IntsDim("v", 0, 1)),
				WorldSize: 2,
				Policies:  []critter.Policy{critter.Conditional, critter.Online},
				Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
					if p.Policy() == critter.Online {
						panic("online run fails")
					}
					n := 4 << v
					for i := 0; i < 8; i++ {
						p.Kernel("work", n, 0, 0, 0, float64(n*n), func() {})
					}
					cc.Barrier()
				},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const body = `{"workload":"grid","policies":["conditional","online"],"eps":[0.5,0.5,0.25],"warmStart":false}`
	s := New(Config{Registry: reg, Runners: 1, Workers: 4})
	defer closeNow(t, s)
	st := submitWait(t, s, body)
	if st.State != StateFailed {
		t.Fatalf("job finished %s (err %q), want failed", st.State, st.Error)
	}
	// The grid as the envelope's bytes hold it.
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(envelopeJSON(t, s, st.ID), &env); err != nil {
		t.Fatal(err)
	}

	spec, err := ParseJobRequest(reg, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	m := sim.DefaultMachine()
	m.NoiseSigma = spec.noise
	res, runErr := autotune.Tuner{
		Study: spec.workload.Build(spec.scale), EpsList: spec.eps, Machine: m, Seed: spec.seed,
		Policies: spec.policies, Strategy: spec.strategy, Workers: 1,
	}.Run(context.Background())
	if runErr == nil {
		t.Fatal("Tuner.Run did not fail the online sweeps")
	}
	got := []byte(env.Result)
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("envelope grid differs from Tuner.Run's:\n%s\nvs\n%s", got, want)
	}
	lines := strings.Split(st.Error, "\n")
	if len(lines) != 3 {
		t.Fatalf("job error has %d lines, want one per failed sweep (3):\n%s", len(lines), st.Error)
	}
	for i, eps := range []string{"eps 0.5:", "eps 0.5:", "eps 0.25:"} {
		if !strings.Contains(lines[i], "policy online "+eps) {
			t.Errorf("job error line %d is %q, want the online sweep at %s", i+1, lines[i], eps)
		}
	}
	if st.Error != runErr.Error() {
		t.Errorf("job error differs from Tuner.Run's:\n%s\nvs\n%s", st.Error, runErr)
	}
}

// TestQueueBounded: submissions beyond the queue capacity fail fast with
// ErrQueueFull instead of blocking or growing without bound.
func TestQueueBounded(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1, QueueSize: 2})
	defer closeNow(t, s)

	// Each submission gets a seed of its own: the test is about queue
	// capacity, not coalescing.
	seed := 0
	body := func() []byte {
		seed++
		return fmt.Appendf(nil, `{"workload":"block","seed":%d}`, seed)
	}
	running, err := s.SubmitJSON(body())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the runner to pop the first job, freeing its queue slot.
	waitState(t, s, running.ID, StateRunning)
	var queued []JobStatus
	for i := 0; i < 2; i++ {
		st, err := s.SubmitJSON(body())
		if err != nil {
			t.Fatalf("submission %d into a non-full queue: %v", i, err)
		}
		queued = append(queued, st)
	}
	if _, err := s.SubmitJSON(body()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission into a full queue: err = %v, want ErrQueueFull", err)
	}

	// Canceling a queued job frees its slot immediately — capacity
	// counts waiting work, not terminal records.
	canceled, err := s.Cancel(queued[1].ID)
	if err != nil || canceled.State != StateCanceled {
		t.Fatalf("cancel queued: %v, %v", canceled.State, err)
	}
	refill, err := s.SubmitJSON(body())
	if err != nil {
		t.Fatalf("submission after canceling a queued job: %v", err)
	}
	queued = []JobStatus{queued[0], refill}

	// A rejected submission burns nothing: after release, everything
	// drains and a new submission works.
	close(gate)
	for _, st := range append([]JobStatus{running}, queued...) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		final, err := s.Wait(ctx, st.ID)
		cancel()
		if err != nil || final.State != StateDone {
			t.Fatalf("job %s after release: %+v, %v", st.ID, final.State, err)
		}
	}
	if st := submitWait(t, s, string(body())); st.State != StateDone {
		t.Fatalf("post-drain submission state %s", st.State)
	}
}

// waitState polls until the job reaches want (or fails the test).
func waitState(t *testing.T, s *Scheduler, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == want {
			return
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached terminal state %s waiting for %s (err %q)", id, st.State, want, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// TestCancelQueuedAndRunning: canceling a queued job skips it entirely;
// canceling a running job aborts its world and lands in canceled state.
func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1, QueueSize: 4})
	defer closeNow(t, s)

	// Two seeds: the queued job must be an independent job so the test
	// exercises queued-state cancellation, not follower detachment.
	running, err := s.SubmitJSON([]byte(`{"workload":"block","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	queued, err := s.SubmitJSON([]byte(`{"workload":"block","seed":2}`))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: immediate terminal state, no result.
	st, err := s.Cancel(queued.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %+v, %v", st.State, err)
	}
	if env, ok := s.Result(queued.ID); !ok || env != nil {
		t.Errorf("canceled queued job has an envelope: %v %v", env, ok)
	}
	if _, err := s.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("re-cancel: err = %v, want ErrFinished", err)
	}

	// Cancel the running job, then release the gate: the blocked first
	// configuration completes, and the cancellation lands at the next
	// configuration boundary, aborting the sweep.
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := s.Wait(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("canceled running job state %s", final.State)
	}
	if !strings.Contains(final.Error, "cancel") {
		t.Errorf("canceled job error %q does not mention cancellation", final.Error)
	}

	// Unknown jobs are a lookup error, not a panic.
	if _, err := s.Cancel("job-999"); err == nil {
		t.Error("cancel of unknown job succeeded")
	}
}

// TestHistoryPruning: terminal jobs beyond MaxHistory are evicted oldest
// first, while queued and running jobs never count against the cap. A
// negative runner count means one runner, so its jobs finish too.
func TestHistoryPruning(t *testing.T) {
	gate := make(chan struct{})
	close(gate) // jobs finish immediately
	for _, runners := range []int{1, -1} {
		s := New(Config{Registry: blockingRegistry(gate), Runners: runners, QueueSize: 8, MaxHistory: 2})
		defer closeNow(t, s)

		// Five seeds: five independent executions and terminal records.
		var ids []string
		for seed := 1; seed <= 5; seed++ {
			ids = append(ids, submitWait(t, s, fmt.Sprintf(`{"workload":"block","seed":%d}`, seed)).ID)
		}
		// The two newest terminal jobs survive; the three oldest are gone.
		for _, id := range ids[:3] {
			if _, ok := s.Status(id); ok {
				t.Errorf("runners %d: evicted job %s still resolvable", runners, id)
			}
		}
		for _, id := range ids[3:] {
			st, ok := s.Status(id)
			if !ok || st.State != StateDone {
				t.Errorf("runners %d: retained job %s: ok=%v state=%v", runners, id, ok, st.State)
			}
			if env, ok := s.Result(id); !ok || env == nil {
				t.Errorf("runners %d: retained job %s lost its envelope", runners, id)
			}
		}
		if n := len(s.Jobs()); n != 2 {
			t.Errorf("runners %d: job list has %d entries, want 2", runners, n)
		}
	}
}

// TestEventStreamReplayAndLive: a subscriber attaching mid-run sees the
// full history (replay + live) ending in exactly one terminal event, in
// done/total order.
func TestEventStreamReplayAndLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	s := New(Config{Runners: 1})
	defer closeNow(t, s)

	st, err := s.SubmitJSON([]byte(`{"workload":"candmc","scale":"quick","policies":["online","local"],"eps":[0.5,0.125],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	sub, ok := s.Subscribe(st.ID)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer sub.Close()

	events := append([]Event(nil), sub.Past...)
	if sub.C != nil {
		timeout := time.After(5 * time.Minute)
	collect:
		for {
			select {
			case ev, open := <-sub.C:
				if !open {
					break collect
				}
				events = append(events, ev)
			case <-timeout:
				t.Fatal("event stream never terminated")
			}
		}
	}
	if n := sub.Dropped(); n != 0 {
		t.Fatalf("attentive subscriber dropped %d events", n)
	}

	if len(events) == 0 || events[0].Type != "queued" {
		t.Fatalf("event stream does not start with queued: %v", events)
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("event stream does not end with done: %v", events)
	}
	sweeps := 0
	prevDone := 0
	for _, ev := range events {
		if ev.Job != st.ID {
			t.Errorf("event for wrong job: %+v", ev)
		}
		if ev.Type != "sweep" {
			continue
		}
		sweeps++
		if ev.Done != prevDone+1 {
			t.Errorf("sweep events out of order: done %d after %d", ev.Done, prevDone)
		}
		prevDone = ev.Done
		if ev.Policy == "" || ev.Eps == 0 {
			t.Errorf("sweep event missing its grid cell: %+v", ev)
		}
	}
	if sweeps != st.SweepsTotal || sweeps != 4 {
		t.Errorf("saw %d sweep events, want %d", sweeps, st.SweepsTotal)
	}
	if last.Done != sweeps || last.Total != sweeps {
		t.Errorf("terminal event counts %d/%d, want %d/%d", last.Done, last.Total, sweeps, sweeps)
	}

	// A subscriber attaching after the end gets the whole history as
	// replay with no live channel.
	after, ok := s.Subscribe(st.ID)
	if !ok || after.C != nil {
		t.Fatalf("post-terminal Subscribe: ok=%v live=%v", ok, after.C)
	}
	defer after.Close()
	if len(after.Past) != len(events) {
		t.Errorf("post-terminal replay has %d events, want %d", len(after.Past), len(events))
	}
}
