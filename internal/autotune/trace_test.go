package autotune_test

// Tracing is observational: installing a Tracer must not perturb a single
// byte of the result grid. These tests run the same tuning grid with and
// without a tracer and require byte-identical envelopes, then check the
// trace itself is structurally sound (sweep/config spans pair up, virtual
// time is populated, propagation rounds appear).

import (
	"context"
	"encoding/json"
	"testing"

	. "critter/internal/autotune"
	"critter/internal/obs"
	"critter/internal/workload"
)

// traceTuner builds the fixed small grid both runs share.
func traceTuner(t *testing.T) Tuner {
	t.Helper()
	study, err := workload.ResolveStudy(nil, "candmc", "quick")
	if err != nil {
		t.Fatal(err)
	}
	return Tuner{
		Study:   study,
		EpsList: []float64{0.5, 0.125},
		Machine: goldenMachine(),
		Seed:    42,
		Workers: 2,
	}
}

// TestTracingDoesNotPerturbResults is the acceptance gate for the tracing
// hooks: a traced run's envelope is byte-identical to an untraced one.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	encode := func(tracer obs.Tracer) []byte {
		tn := traceTuner(t)
		tn.Tracer = tracer
		res, err := tn.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	plain := encode(nil)
	ring := obs.NewRing(1<<16, nil)
	traced := encode(ring)
	if string(plain) != string(traced) {
		t.Fatal("traced run's envelope differs from the untraced run: tracing is no longer purely observational")
	}

	events := ring.Events()
	if ring.Dropped() != 0 {
		t.Fatalf("trace ring dropped %d events; size the ring up", ring.Dropped())
	}
	if len(events) == 0 {
		t.Fatal("traced run emitted no events")
	}

	// Span structure: every kind that forms spans has matching begin and
	// end counts, config ordinals pair up within their sweep, and the
	// deterministic layers stamped virtual time on round events.
	type spanID struct {
		kind   string
		policy string
		eps    float64
		config int
	}
	begins := make(map[spanID]int)
	counts := make(map[string]int)
	rounds, virtualStamped := 0, 0
	for _, ev := range events {
		counts[ev.Kind+"/"+ev.Phase]++
		if ev.Kind == obs.KindRound {
			rounds++
			if ev.Virtual > 0 {
				virtualStamped++
			}
			continue
		}
		id := spanID{kind: ev.Kind, policy: ev.Policy, eps: ev.Eps, config: ev.Config}
		switch ev.Phase {
		case obs.PhaseBegin:
			begins[id]++
		case obs.PhaseEnd:
			begins[id]--
			if begins[id] < 0 {
				t.Fatalf("end without begin for span %+v", id)
			}
		}
	}
	for id, n := range begins {
		if n != 0 {
			t.Errorf("span %+v left %d unpaired begins", id, n)
		}
	}
	grid := traceTuner(t)
	wantSweeps := len(grid.Study.Policies) * len(grid.EpsList)
	if counts[obs.KindSweep+"/"+obs.PhaseBegin] != wantSweeps {
		t.Errorf("saw %d sweep begins, want %d", counts[obs.KindSweep+"/"+obs.PhaseBegin], wantSweeps)
	}
	if counts[obs.KindConfig+"/"+obs.PhaseEnd] == 0 {
		t.Error("trace has no config spans")
	}
	if rounds == 0 || virtualStamped == 0 {
		t.Errorf("trace has %d round events (%d with virtual time), want both nonzero", rounds, virtualStamped)
	}
}

// TestTraceIndependentOfReferences: a run's trace is a function of what the
// run tunes, not of who ran its references. A reference emits nothing, so a
// run on a Study value whose reference table is already full traces the same
// (kind, phase, name) sequence as the cold run that filled it, and at four
// workers, where sweeps race to one missing slot and may both run its
// reference, two fresh values trace the same number of events.
func TestTraceIndependentOfReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	type step struct{ kind, phase, name string }
	trace := func(study Study, workers int) []step {
		t.Helper()
		ring := obs.NewRing(1<<16, nil)
		_, err := Tuner{
			Study:   study,
			EpsList: []float64{0.5},
			Machine: goldenMachine(),
			Seed:    7,
			Workers: workers,
			Tracer:  ring,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ring.Dropped() != 0 {
			t.Fatalf("trace ring dropped %d events; size the ring up", ring.Dropped())
		}
		var steps []step
		for _, ev := range ring.Events() {
			steps = append(steps, step{ev.Kind, ev.Phase, ev.Name})
		}
		return steps
	}
	candmc := func() Study {
		study, err := workload.ResolveStudy(nil, "candmc", "quick")
		if err != nil {
			t.Fatal(err)
		}
		return study
	}

	study := candmc()
	cold, warm := trace(study, 1), trace(study, 1)
	if len(cold) != len(warm) {
		t.Errorf("one worker: the cold run traced %d events, the warm run %d", len(cold), len(warm))
	}
	for i := range min(len(cold), len(warm)) {
		if cold[i] != warm[i] {
			t.Fatalf("one worker: event %d is %+v cold and %+v warm", i, cold[i], warm[i])
		}
	}
	if a, b := len(trace(candmc(), 4)), len(trace(candmc(), 4)); a != b || a != len(cold) {
		t.Errorf("four workers: two fresh Study values traced %d and %d events, one worker %d", a, b, len(cold))
	}
}
