package autotune

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"critter/internal/critter"
)

// TestTunerNilStrategyAndContext checks the defaults: nil Strategy means
// Exhaustive and a nil context means Background.
func TestTunerNilStrategyAndContext(t *testing.T) {
	res, err := Tuner{
		Study:   tinyStudy("tiny"),
		EpsList: []float64{0.25},
		Machine: quickMachine(),
		Seed:    3,
	}.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "exhaustive" {
		t.Errorf("default strategy recorded as %q, want exhaustive", res.Strategy)
	}
	if len(res.Sweeps[0][0].Configs) != 2 {
		t.Errorf("exhaustive covered %d configs, want 2", len(res.Sweeps[0][0].Configs))
	}
}

// TestRandomSampleStrategy checks the budgeted sampler: exactly N distinct
// in-range configurations, the same subset in every grid cell and across
// runs, and a different subset under a different seed.
func TestRandomSampleStrategy(t *testing.T) {
	st := CapitalCholesky(QuickScale())
	run := func(seed uint64) *Result {
		res, err := Tuner{
			Study:    st,
			EpsList:  []float64{0.5, 0.25},
			Machine:  quickMachine(),
			Seed:     5,
			Policies: []critter.Policy{critter.Conditional},
			Strategy: RandomSample{N: 5, Seed: seed},
			Workers:  2,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(9)
	if res.Strategy != "random:5" {
		t.Errorf("strategy recorded as %q", res.Strategy)
	}
	subset := func(sw SweepResult) map[int]bool {
		out := map[int]bool{}
		for _, cr := range sw.Configs {
			if cr.Config < 0 || cr.Config >= st.Size() {
				t.Fatalf("sampled config %d outside [0, %d)", cr.Config, st.Size())
			}
			out[cr.Config] = true
		}
		return out
	}
	first := subset(res.Sweeps[0][0])
	if len(first) != 5 || len(res.Sweeps[0][0].Configs) != 5 {
		t.Fatalf("sampled %d distinct configs (%d evaluations), want 5", len(first), len(res.Sweeps[0][0].Configs))
	}
	if second := subset(res.Sweeps[0][1]); !reflect.DeepEqual(first, second) {
		t.Errorf("grid cells sampled different subsets: %v vs %v", first, second)
	}
	if rerun := subset(run(9).Sweeps[0][0]); !reflect.DeepEqual(first, rerun) {
		t.Errorf("re-run sampled a different subset: %v vs %v", first, rerun)
	}
	if other := subset(run(10).Sweeps[0][0]); reflect.DeepEqual(first, other) {
		t.Errorf("seed 10 sampled the same subset as seed 9: %v", first)
	}
	// The selected configuration must come from the evaluated subset.
	if !first[res.Sweeps[0][0].Selected] {
		t.Errorf("selected config %d was never evaluated", res.Sweeps[0][0].Selected)
	}
}

// rampStudy is a synthetic study whose configurations get slower with the
// index (config v runs kernels of cost ~(v+1)), so predicted-time pruning
// has a meaningful ordering.
func rampStudy(n int) Study {
	return Study{
		Name:      "ramp",
		Space:     NewSpace(IntsDim("cost", seqInts(n)...)),
		WorldSize: 2,
		Policies:  []critter.Policy{critter.Online},
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			for i := 0; i < 6; i++ {
				p.Kernel("work", v+1, 0, 0, 0, float64((v+1)*2000), func() {})
			}
			cc.Barrier()
		},
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestSuccessiveHalvingPrunes checks the rung structure: survivor counts
// shrink by eta per rung, tolerances tighten toward the target, the final
// rung runs at the sweep's tolerance, and the selection comes from the
// evaluated set.
func TestSuccessiveHalvingPrunes(t *testing.T) {
	const n, eps = 16, 0.125
	res, err := Tuner{
		Study:    rampStudy(n),
		EpsList:  []float64{eps},
		Machine:  quickMachine(),
		Seed:     11,
		Strategy: SuccessiveHalving{},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Sweeps[0][0]
	// Rungs: 16 at eps*8, 8 at eps*4, 4 at eps*2, 2 at eps.
	wantSizes := []int{16, 8, 4, 2}
	wantEps := []float64{1, 0.5, 0.25, 0.125}
	var gotSizes []int
	var gotEps []float64
	for i := 0; i < len(sw.Configs); {
		e := sw.Configs[i].Eps
		j := i
		for j < len(sw.Configs) && sw.Configs[j].Eps == e {
			j++
		}
		gotSizes = append(gotSizes, j-i)
		gotEps = append(gotEps, e)
		i = j
	}
	if !reflect.DeepEqual(gotSizes, wantSizes) || !reflect.DeepEqual(gotEps, wantEps) {
		t.Fatalf("rungs (size@eps) = %v @ %v, want %v @ %v", gotSizes, gotEps, wantSizes, wantEps)
	}
	evaluated := map[int]bool{}
	for _, cr := range sw.Configs {
		evaluated[cr.Config] = true
	}
	if !evaluated[sw.Selected] {
		t.Errorf("selected config %d was never evaluated", sw.Selected)
	}
	// The ramp makes low indices fastest; the final rung must hold
	// low-cost survivors, not the slow tail.
	for _, cr := range sw.Configs[len(sw.Configs)-2:] {
		if cr.Config >= n/2 {
			t.Errorf("final rung kept slow config %d (space of %d, ascending cost)", cr.Config, n)
		}
	}
}

// TestTunerCancelMidGrid cancels the context from inside the first
// configuration of a long sweep: Run must return promptly with an error
// satisfying errors.Is(err, context.Canceled), no deadlock, and a zeroed
// cell for the cancelled sweep.
func TestTunerCancelMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	st := tinyStudy("cancel-study")
	st.Space = flatSpace(500)
	run := st.Run
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		once.Do(cancel)
		run(p, cc, v)
	}
	res, err := Tuner{
		Study:   st,
		EpsList: []float64{0.5, 0.25, 0.125},
		Machine: quickMachine(),
		Seed:    2,
		Workers: 2,
	}.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run dropped the result grid")
	}
	for ei := range res.EpsList {
		if sw := res.Sweeps[0][ei]; len(sw.Configs) != 0 {
			t.Errorf("cancelled sweep %d kept %d partial configs, want zeroed cell", ei, len(sw.Configs))
		}
	}
}

// TestTunerCancelSkipsPendingJobs checks that a context cancelled before
// Run starts skips every sweep without simulating anything.
func TestTunerCancelSkipsPendingJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []Progress
	res, err := Tuner{
		Study:    tinyStudy("tiny"),
		EpsList:  []float64{0.5, 0.25},
		Machine:  quickMachine(),
		Seed:     2,
		Progress: func(ev Progress) { events = append(events, ev) },
	}.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Sweeps[0]) != 2 {
		t.Fatal("result grid shape lost on cancellation")
	}
	// Progress still reaches Done == Total, with every sweep erred.
	if len(events) != 2 || events[1].Done != 2 || events[1].Total != 2 {
		t.Fatalf("progress events %+v, want 2 reaching 2/2", events)
	}
	for _, ev := range events {
		if !errors.Is(ev.Err, context.Canceled) {
			t.Errorf("progress err = %v, want context.Canceled", ev.Err)
		}
	}
}

// TestTunerStream checks the streaming runner: one (result, error) pair per
// grid cell in completion order, with the full grid covered.
func TestTunerStream(t *testing.T) {
	eps := []float64{1, 0.5, 0.25}
	tn := Tuner{
		Study:   tinyStudy("tiny"),
		EpsList: eps,
		Machine: quickMachine(),
		Seed:    3,
		Workers: 3,
	}
	seen := map[float64]int{}
	for sw, err := range tn.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.Configs) != 2 {
			t.Errorf("streamed sweep eps %g covered %d configs", sw.Eps, len(sw.Configs))
		}
		seen[sw.Eps]++
	}
	for _, e := range eps {
		if seen[e] != 1 {
			t.Errorf("eps %g streamed %d times, want 1", e, seen[e])
		}
	}
	// Streamed sweeps must match the batch path bit-for-bit.
	res, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for sw, err := range tn.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		ei := -1
		for i, e := range eps {
			if e == sw.Eps {
				ei = i
			}
		}
		if !reflect.DeepEqual(res.Sweeps[0][ei], sw) {
			t.Errorf("streamed sweep eps %g differs from batch result", sw.Eps)
		}
	}
}

// TestTunerStreamEarlyBreak stops consuming after the first sweep; the
// iterator must cancel the rest and return without deadlocking or leaking
// the pool.
func TestTunerStreamEarlyBreak(t *testing.T) {
	tn := Tuner{
		Study:   tinyStudy("tiny"),
		EpsList: []float64{1, 0.5, 0.25, 0.125},
		Machine: quickMachine(),
		Seed:    3,
		Workers: 2,
	}
	n := 0
	for _, err := range tn.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("consumed %d sweeps after break, want 1", n)
	}
}

// TestExperimentPartialResults checks the partial-result fix: when one
// policy's sweeps fail, Run returns the grid with the failed cells zeroed
// and the healthy cells intact, alongside the joined error.
func TestExperimentPartialResults(t *testing.T) {
	st := tinyStudy("half-broken")
	run := st.Run
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		if p.Policy() == critter.Local {
			panic("local breaks")
		}
		run(p, cc, v)
	}
	res, err := Tuner{
		Study:    st,
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     2,
		Policies: []critter.Policy{critter.Conditional, critter.Local},
	}.Run(context.Background())
	if err == nil {
		t.Fatal("failing sweep reported no error")
	}
	if !strings.Contains(err.Error(), "local breaks") || !strings.Contains(err.Error(), "policy local") {
		t.Errorf("error %q does not identify the failing sweep", err)
	}
	if res == nil {
		t.Fatal("partial results dropped: got nil grid")
	}
	if good := res.Sweeps[0][0]; len(good.Configs) != 2 {
		t.Errorf("healthy sweep lost: %d configs", len(good.Configs))
	}
	if bad := res.Sweeps[1][0]; len(bad.Configs) != 0 {
		t.Errorf("failed sweep not zeroed: %+v", bad)
	}
}

// TestFullOnlyParallelDeterminism checks that the parallelized full-only
// pass is bit-identical at any worker count (each configuration runs in its
// own identically seeded world).
func TestFullOnlyParallelDeterminism(t *testing.T) {
	st := CapitalCholesky(QuickScale())
	seq, err := FullOnlyCtx(context.Background(), st, quickMachine(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := FullOnlyCtx(context.Background(), st, quickMachine(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("FullOnlyCtx differs between 1 and 4 workers")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := FullOnlyCtx(cancelled, st, quickMachine(), 3, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FullOnlyCtx err = %v", err)
	}
	if len(reports) != st.Size() {
		t.Errorf("cancelled FullOnlyCtx returned %d report slots, want %d", len(reports), st.Size())
	}
}

// TestEnvelopeRoundTrip checks the self-describing serialization: an
// Envelope survives a JSON round trip, including the policy names inside
// the result grid.
func TestEnvelopeRoundTrip(t *testing.T) {
	res, err := Tuner{
		Study:    tinyStudy("tiny"),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     4,
		Strategy: RandomSample{N: 1, Seed: 4},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	env := Envelope{
		SchemaVersion: ResultSchemaVersion,
		Study:         "tiny",
		Scale:         "quick",
		Seed:          4,
		NoiseSigma:    0.05,
		Strategy:      "random:1",
		Profiles:      ProfileSummaries(res),
		Result:        res,
	}
	if len(env.Profiles) != 1 || env.Profiles[0].Kernels == 0 {
		t.Fatalf("profile summaries missing or empty: %+v", env.Profiles)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back Envelope
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// The full per-sweep profiles are deliberately not serialized (the
	// envelope carries summaries; -profile-out persists the artifact), so
	// the round trip is checked against a stripped copy.
	want := env
	stripped := *res
	stripped.Sweeps = make([][]SweepResult, len(res.Sweeps))
	for pi := range res.Sweeps {
		stripped.Sweeps[pi] = make([]SweepResult, len(res.Sweeps[pi]))
		for ei, sw := range res.Sweeps[pi] {
			sw.Profile = nil
			stripped.Sweeps[pi][ei] = sw
		}
	}
	want.Result = &stripped
	if !reflect.DeepEqual(want, back) {
		t.Fatalf("round trip changed the envelope:\n%+v\n%+v", want, back)
	}
	if back.SchemaVersion != 3 || back.Result.Strategy != "random:1" {
		t.Errorf("envelope not self-describing: version %d strategy %q", back.SchemaVersion, back.Result.Strategy)
	}
	if len(back.Profiles) != 1 || back.Profiles[0].Kernels != env.Profiles[0].Kernels {
		t.Errorf("profile summaries lost in round trip: %+v", back.Profiles)
	}
}

// countingStrategy decorates a strategy to count the Plan and Next calls a
// sweep makes, whichever goroutine makes them.
type countingStrategy struct {
	inner        Strategy
	plans, nexts *atomic.Int64
}

func (s countingStrategy) Name() string { return "counting:" + s.inner.Name() }

func (s countingStrategy) Plan(sp Space, eps float64) Plan {
	s.plans.Add(1)
	return countingPlan{Plan: s.inner.Plan(sp, eps), nexts: s.nexts}
}

type countingPlan struct {
	Plan
	nexts *atomic.Int64
}

func (p countingPlan) Next(prev []ConfigResult) (Round, bool) {
	p.nexts.Add(1)
	return p.Plan.Next(prev)
}

// TestPlanRunsOncePerSweep pins who plans a sweep: rank 0 alone builds the
// plan and asks it for every round, and the world's other ranks get each
// round by broadcast. A 2-rank world therefore makes one Plan call per sweep
// and rounds+1 Next calls (the last one ends the sweep), not one of each per
// rank.
func TestPlanRunsOncePerSweep(t *testing.T) {
	for _, tc := range []struct {
		strat   Strategy
		rounds  int
		configs int
	}{
		{Exhaustive{}, 1, 8},
		{SuccessiveHalving{}, 3, 8 + 4 + 2}, // rungs of 8, 4 and 2
	} {
		t.Run(tc.strat.Name(), func(t *testing.T) {
			probe := countingStrategy{inner: tc.strat, plans: new(atomic.Int64), nexts: new(atomic.Int64)}
			res, err := Tuner{
				Study:    rampStudy(8), // WorldSize 2
				EpsList:  []float64{0.25},
				Machine:  quickMachine(),
				Seed:     6,
				Strategy: probe,
			}.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Sweeps[0][0].Configs); got != tc.configs {
				t.Errorf("sweep evaluated %d configurations, want %d", got, tc.configs)
			}
			if got := probe.plans.Load(); got != 1 {
				t.Errorf("Plan called %d times, want once per sweep", got)
			}
			if got, want := probe.nexts.Load(), int64(tc.rounds+1); got != want {
				t.Errorf("Next called %d times, want %d (%d rounds + the call that ends the sweep)", got, want, tc.rounds)
			}
		})
	}
}

// emptyStrategy plans sweeps with nothing in them: its first round is round,
// returned with ok.
type emptyStrategy struct {
	round Round
	ok    bool
}

func (s emptyStrategy) Name() string { return "empty" }

func (s emptyStrategy) Plan(Space, float64) Plan { return &oneShot{round: s.round, done: !s.ok} }

// TestEmptyPlanFailsSweep pins the empty-plan fix: a strategy whose first
// Next returns false, or an empty round, used to end the sweep with a nil
// error, Selected 0, Optimal 0 and a MeanLogExecErr of -Inf, which
// json.Marshal rejects. Every rank must abort together and the sweep fail
// with an error naming the strategy, its cell zeroed.
func TestEmptyPlanFailsSweep(t *testing.T) {
	for _, strat := range []emptyStrategy{{}, {round: Round{Eps: 0.25}, ok: true}} {
		res, err := Tuner{
			Study:    rampStudy(4),
			EpsList:  []float64{0.25},
			Machine:  quickMachine(),
			Seed:     6,
			Strategy: strat,
		}.Run(context.Background())
		if err == nil {
			t.Fatalf("ok=%v: a sweep that evaluated nothing returned no error", strat.ok)
		}
		if !strings.Contains(err.Error(), "strategy empty") {
			t.Errorf("ok=%v: error %q does not name the strategy", strat.ok, err)
		}
		if sw := res.Sweeps[0][0]; !reflect.DeepEqual(sw, SweepResult{}) {
			t.Errorf("ok=%v: failed cell not zeroed: %+v", strat.ok, sw)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("ok=%v: result does not encode: %v", strat.ok, err)
		}
	}
}
