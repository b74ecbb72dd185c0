package autotune

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"critter/internal/critter"
	"critter/internal/sim"
)

// flatSpace is a one-axis space of n configurations, for synthetic studies
// whose configuration index has no structure.
func flatSpace(n int) Space {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	return NewSpace(IntsDim("config", vals...))
}

// tinyStudy is a minimal synthetic study for executor tests: two
// configurations of a single computation kernel on two ranks.
func tinyStudy(name string) Study {
	return Study{
		Name:      name,
		Space:     flatSpace(2),
		WorldSize: 2,
		Policies:  []critter.Policy{critter.Conditional},
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			n := 4 << v
			for i := 0; i < 8; i++ {
				p.Kernel("work", n, 0, 0, 0, float64(n*n), func() {})
			}
			cc.Barrier()
		},
	}
}

// panicStudy fails on every configuration.
func panicStudy() Study {
	st := tinyStudy("boom-study")
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		panic("kaboom")
	}
	return st
}

// TestRunParallelDeterminism is the executor's core contract: a pool of
// four workers must return SweepResults identical to the sequential path,
// because every sweep runs in its own world and a run's noise is keyed by
// what is run.
func TestRunParallelDeterminism(t *testing.T) {
	tn := Tuner{
		Study:    CapitalCholesky(QuickScale()),
		EpsList:  []float64{0.5, 0.125},
		Machine:  quickMachine(),
		Seed:     7,
		Policies: []critter.Policy{critter.Conditional, critter.Online},
		Workers:  1,
	}
	seq, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tn.Workers = 4
	par, err := tn.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		for pi := range seq.Sweeps {
			for ei := range seq.Sweeps[pi] {
				if !reflect.DeepEqual(seq.Sweeps[pi][ei], par.Sweeps[pi][ei]) {
					t.Errorf("policy %s eps %g: parallel sweep differs from sequential",
						seq.Policies[pi], seq.EpsList[ei])
				}
			}
		}
		t.Fatal("Workers: 4 result differs from Workers: 1")
	}
}

// TestRunDefaultWorkers checks that the zero value (no Workers field set)
// still runs every sweep and fills the whole result grid in order.
func TestRunDefaultWorkers(t *testing.T) {
	eps := []float64{1, 0.5, 0.25}
	res, err := Tuner{
		Study:   tinyStudy("tiny"),
		EpsList: eps,
		Machine: quickMachine(),
		Seed:    3,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 1 || len(res.Sweeps[0]) != len(eps) {
		t.Fatalf("sweep grid %dx%d, want 1x%d", len(res.Sweeps), len(res.Sweeps[0]), len(eps))
	}
	for ei, sw := range res.Sweeps[0] {
		if sw.Eps != eps[ei] {
			t.Errorf("slot %d holds eps %g, want %g (ordering broken)", ei, sw.Eps, eps[ei])
		}
		if len(sw.Configs) != 2 {
			t.Errorf("slot %d covered %d configs", ei, len(sw.Configs))
		}
	}
}

// TestEmptyPolicyOverrideFallsBack guards the policy-resolution fallback: a
// non-nil empty Policies override must still yield the four-policy default,
// not a silent zero-sweep no-op.
func TestEmptyPolicyOverrideFallsBack(t *testing.T) {
	st := tinyStudy("tiny")
	st.Policies = nil
	res, err := Tuner{
		Study:    st,
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     1,
		Policies: []critter.Policy{},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 4 || len(res.Sweeps) != 4 {
		t.Fatalf("empty override resolved to %v, want the four-policy default", res.Policies)
	}
}

// TestSuitePropagatesErrors checks that RunTuners reports every failing
// study (tagged with study, policy, and eps) in its own errs slot instead of
// dropping errors, while every result grid stays non-nil: the healthy
// study's intact, the failed study's with its cells zeroed.
func TestSuitePropagatesErrors(t *testing.T) {
	mk := func(st Study) Tuner {
		return Tuner{Study: st, EpsList: []float64{0.25}, Machine: quickMachine(), Seed: 2}
	}
	var events []Progress
	results, errs := RunTuners(context.Background(),
		[]Tuner{mk(tinyStudy("ok-study")), mk(panicStudy())}, 2,
		func(ev Progress) { events = append(events, ev) })
	if len(results) != 2 || len(errs) != 2 {
		t.Fatalf("got %d results and %d errors, want 2 and 2", len(results), len(errs))
	}
	if errs[0] != nil {
		t.Errorf("healthy study reported %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("pool dropped the failing study's error")
	}
	for _, want := range []string{"boom-study", "kaboom", "conditional"} {
		if !strings.Contains(errs[1].Error(), want) {
			t.Errorf("error %q does not mention %q", errs[1], want)
		}
	}
	if results[0] == nil || len(results[0].Sweeps[0][0].Configs) != 2 {
		t.Error("successful study's result was dropped alongside the failure")
	}
	if results[1] == nil {
		t.Fatal("failed study's grid is nil, want zeroed cells")
	}
	if bad := results[1].Sweeps[0][0]; !reflect.DeepEqual(bad, SweepResult{}) {
		t.Errorf("failed sweep not zeroed: %+v", bad)
	}
	// Failed sweeps still count toward progress, so Done reaches Total.
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2 (failures must report too)", len(events))
	}
	if last := events[len(events)-1]; last.Done != 2 || last.Total != 2 {
		t.Errorf("final progress %d/%d, want 2/2", last.Done, last.Total)
	}
	failed := 0
	for _, ev := range events {
		if ev.Err != nil {
			failed++
			if ev.Study != "boom-study" {
				t.Errorf("failure reported for %q, want boom-study", ev.Study)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d progress events carried an error, want 1", failed)
	}
}

// TestSuiteSharedProgress checks that RunTuners reports one completion per
// sweep with pool-wide counts, serialized across workers.
func TestSuiteSharedProgress(t *testing.T) {
	eps := []float64{1, 0.5}
	var events []Progress
	_, errs := RunTuners(context.Background(), []Tuner{
		{Study: tinyStudy("a"), EpsList: eps, Machine: quickMachine(), Seed: 1},
		{Study: tinyStudy("b"), EpsList: eps, Machine: quickMachine(), Seed: 1},
	}, 4, func(ev Progress) { events = append(events, ev) })
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4", len(events))
	}
	byStudy := map[string]int{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 4 {
			t.Errorf("event %d: done %d/%d, want %d/4", i, ev.Done, ev.Total, i+1)
		}
		byStudy[ev.Study]++
	}
	if byStudy["a"] != 2 || byStudy["b"] != 2 {
		t.Errorf("per-study completions %v, want 2 each", byStudy)
	}
}

// TestUnrunnableStudyFails pins the empty-study fix and the invalid-world
// fix: a study with no configurations (the zero Space) or no Run function
// used to plan zero rounds and return err == nil with Selected: 0,
// Optimal: 0 in every sweep, and a study with no ranks or a machine that
// fails Validate (a negative NoiseSigma) used to panic inside mpi.NewWorld,
// taking the process down. Every entry point must fail each such sweep or
// configuration with an error naming the study, cells zeroed.
func TestUnrunnableStudyFails(t *testing.T) {
	noSpace := tinyStudy("no-space")
	noSpace.Space = Space{}
	noRun := tinyStudy("no-run")
	noRun.Run = nil
	noRanks := tinyStudy("no-ranks")
	noRanks.WorldSize = 0
	badMachine := quickMachine()
	badMachine.NoiseSigma = -1
	for _, tc := range []struct {
		st Study
		m  sim.Machine
	}{
		{noSpace, quickMachine()},
		{noRun, quickMachine()},
		{noRanks, quickMachine()},
		{tinyStudy("bad-machine"), badMachine},
	} {
		st := tc.st
		tn := Tuner{Study: st, EpsList: []float64{0.5, 0.25}, Machine: tc.m, Seed: 1}
		check := func(entry string, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s: %s returned no error", st.Name, entry)
			} else if !strings.Contains(err.Error(), st.Name) {
				t.Errorf("%s: %s error %q does not name the study", st.Name, entry, err)
			}
		}
		res, err := tn.Run(context.Background())
		check("Tuner.Run", err)
		if res == nil || len(res.Sweeps) != 1 || len(res.Sweeps[0]) != 2 {
			t.Fatalf("%s: Tuner.Run grid %+v, want 1x2 zeroed cells", st.Name, res)
		}
		for _, sw := range res.Sweeps[0] {
			if !reflect.DeepEqual(sw, SweepResult{}) {
				t.Errorf("%s: failed cell not zeroed: %+v", st.Name, sw)
			}
		}
		yielded := 0
		for sw, err := range tn.Stream(context.Background()) {
			yielded++
			check("Tuner.Stream", err)
			if len(sw.Configs) != 0 {
				t.Errorf("%s: Stream yielded configs for a failed sweep", st.Name)
			}
		}
		if yielded != 2 {
			t.Errorf("%s: Stream yielded %d cells, want 2", st.Name, yielded)
		}
		ok := Tuner{Study: tinyStudy("fine"), EpsList: []float64{0.5}, Machine: quickMachine(), Seed: 1}
		results, errs := RunTuners(context.Background(), []Tuner{ok, tn}, 2, nil)
		if errs[0] != nil || len(results[0].Sweeps[0][0].Configs) != 2 {
			t.Errorf("%s: RunTuners let the bad study disturb its neighbour: %v", st.Name, errs[0])
		}
		check("RunTuners", errs[1])
		_, err = FullOnlyCtx(context.Background(), st, tc.m, 1, 1)
		check("FullOnlyCtx", err)
	}
}
