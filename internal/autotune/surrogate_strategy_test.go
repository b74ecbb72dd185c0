package autotune

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"critter/internal/critter"
)

// TestSurrogateStrategy checks the model-guided sampler: at most N distinct
// in-range configurations, the budget exactly spent when the space is
// larger, a selection from the evaluated set, and bit-identical sweeps
// across re-runs.
func TestSurrogateStrategy(t *testing.T) {
	const n = 6
	st := rampStudy(16)
	run := func() *Result {
		res, err := Tuner{
			Study:    st,
			EpsList:  []float64{0.25},
			Machine:  quickMachine(),
			Seed:     9,
			Strategy: Surrogate{N: n, Seed: 9},
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Strategy != "surrogate:6" {
		t.Errorf("strategy recorded as %q", res.Strategy)
	}
	sw := res.Sweeps[0][0]
	evaluated := map[int]bool{}
	for _, cr := range sw.Configs {
		if cr.Config < 0 || cr.Config >= st.Size() {
			t.Fatalf("proposed config %d outside [0, %d)", cr.Config, st.Size())
		}
		if evaluated[cr.Config] {
			t.Fatalf("config %d evaluated twice — the budget must buy distinct points", cr.Config)
		}
		evaluated[cr.Config] = true
		if cr.Eps != 0.25 {
			t.Errorf("config %d ran at eps %g, want the target 0.25 (the surrogate's cheap fidelity is the predicted time, not a loosened tolerance)", cr.Config, cr.Eps)
		}
	}
	if len(evaluated) != n {
		t.Fatalf("evaluated %d distinct configs, want the full budget %d", len(evaluated), n)
	}
	if !evaluated[sw.Selected] {
		t.Errorf("selected config %d was never evaluated", sw.Selected)
	}
	// The ramp's costs rise with the index; a model-guided search that
	// learned anything must not select from the slowest half.
	if sw.Selected >= st.Size()/2 {
		t.Errorf("surrogate selected slow config %d on an ascending-cost ramp of %d", sw.Selected, st.Size())
	}
	if rerun := run(); !reflect.DeepEqual(res, rerun) {
		t.Error("re-run produced a different result grid")
	}
	// A budget at or above the space size degenerates to full coverage.
	full := Surrogate{N: 99, Seed: 9}
	if full.Name() != "surrogate:99" {
		t.Errorf("Name() = %q", full.Name())
	}
	sp := st.Space
	plan := full.Plan(sp, 0.25)
	covered := map[int]bool{}
	var prev []ConfigResult
	for {
		round, ok := plan.Next(prev)
		if !ok || len(round.Configs) == 0 {
			break
		}
		prev = prev[:0]
		for _, v := range round.Configs {
			covered[v] = true
			prev = append(prev, ConfigResult{Config: v, Selective: critter.Report{Predicted: float64(v + 1)}})
		}
	}
	if len(covered) != sp.Size() {
		t.Errorf("budget >= space covered %d of %d configs", len(covered), sp.Size())
	}
}

// TestSurrogateSeedVariesDesign pins the seeding contract: different seeds
// draw different initial designs (the strategy's only stochastic input),
// while equal seeds draw identical ones.
func TestSurrogateSeedVariesDesign(t *testing.T) {
	sp := NewSpace(IntsDim("v", seqInts(24)...))
	first := func(seed uint64) []int {
		round, ok := Surrogate{N: 8, Seed: seed}.Plan(sp, 0.25).Next(nil)
		if !ok {
			t.Fatal("no first round")
		}
		return round.Configs
	}
	if a, b := first(1), first(1); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed drew different designs: %v vs %v", a, b)
	}
	if a, b := first(1), first(2); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 1 and 2 drew the same design: %v", a)
	}
}

// TestSurrogateWorkerInvariance is the acceptance criterion for the new
// strategy: serialized result grids are byte-identical at any worker count.
func TestSurrogateWorkerInvariance(t *testing.T) {
	base := Tuner{
		Study:    CapitalCholesky(QuickScale()),
		EpsList:  []float64{0.125},
		Machine:  quickMachine(),
		Seed:     42,
		Policies: []critter.Policy{critter.Online},
		Strategy: Surrogate{N: 6, Seed: 42},
	}
	marshal := func(tn Tuner) string {
		res, err := tn.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := marshal(base)
	for _, workers := range []int{1, 4} {
		tn := base
		tn.Workers = workers
		if got := marshal(tn); got != want {
			t.Errorf("surrogate sweep diverges at workers=%d", workers)
		}
	}
}

// TestSurrogateReplaysFromResults checks that a surrogate plan sees only the
// ConfigResults its sweep hands it: a fresh plan fed a recorded sweep's
// results round by round proposes exactly that sweep's evaluation order.
// Anything else the executor fed the plan mid-sweep would show here.
func TestSurrogateReplaysFromResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick capital sweep")
	}
	const eps = 0.5
	strat := Surrogate{N: 8, Seed: 42}
	st := CapitalCholesky(QuickScale())
	res, err := Tuner{
		Study:    st,
		EpsList:  []float64{eps},
		Machine:  quickMachine(),
		Seed:     42,
		Policies: []critter.Policy{critter.Online},
		Strategy: strat,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	recorded := res.Sweeps[0][0].Configs
	plan := strat.Plan(st.Space, eps)
	var prev []ConfigResult
	done := 0
	for {
		round, ok := plan.Next(prev)
		if !ok || len(round.Configs) == 0 {
			break
		}
		if done+len(round.Configs) > len(recorded) {
			t.Fatalf("replay proposes %v after the sweep's %d evaluations", round.Configs, len(recorded))
		}
		prev = recorded[done : done+len(round.Configs)]
		for i, v := range round.Configs {
			if prev[i].Config != v {
				t.Fatalf("evaluation %d: replay proposes config %d, the sweep ran %d", done+i, v, prev[i].Config)
			}
		}
		done += len(round.Configs)
	}
	if done != len(recorded) {
		t.Fatalf("replay ended after %d evaluations, the sweep ran %d", done, len(recorded))
	}
}

// TestPruneDeterministicTieBreak is the regression test for prune's sort
// rewrite: equal predicted times break by configuration index, the keep
// set is returned ascending, and the outcome is independent of the input
// order (the (Predicted, Config) key totally orders any round's results,
// so the unstable slices.SortFunc cannot leak input order).
func TestPruneDeterministicTieBreak(t *testing.T) {
	mk := func(cfg int, pred float64) ConfigResult {
		return ConfigResult{Config: cfg, Selective: critter.Report{Predicted: pred}}
	}
	results := []ConfigResult{mk(5, 3), mk(7, 1), mk(2, 1), mk(1, 2), mk(9, 1)}
	want := []int{2, 7} // ties at predicted 1 break by config: 2, 7, 9
	if got := prune(results, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("prune = %v, want %v", got, want)
	}
	// Every rotation of the input yields the same keep set.
	for shift := 1; shift < len(results); shift++ {
		rotated := append(append([]ConfigResult{}, results[shift:]...), results[:shift]...)
		if got := prune(rotated, 2); !reflect.DeepEqual(got, want) {
			t.Errorf("prune(rotation %d) = %v, want %v", shift, got, want)
		}
	}
	// n beyond the input keeps everything, ascending.
	if got := prune(results, 99); !reflect.DeepEqual(got, []int{1, 2, 5, 7, 9}) {
		t.Errorf("prune(all) = %v", got)
	}
	if got := prune(nil, 3); len(got) != 0 {
		t.Errorf("prune(nil) = %v, want empty", got)
	}
}

// TestStrategyNamesComplete pins the flag grammar: every parseable
// strategy's Name round-trips through ParseStrategy to an equivalent
// value, and StrategyNames mentions every grammar head the parser accepts
// (so -h output and error messages can never fall behind a new strategy).
func TestStrategyNamesComplete(t *testing.T) {
	const seed = 7
	strategies := []Strategy{
		Exhaustive{},
		RandomSample{N: 8, Seed: seed},
		SuccessiveHalving{},
		Surrogate{N: 6, Seed: seed},
	}
	for _, s := range strategies {
		back, err := ParseStrategy(s.Name(), seed)
		if err != nil {
			t.Errorf("ParseStrategy(%q) (a Name the code emitted): %v", s.Name(), err)
			continue
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("ParseStrategy(%q) = %#v, want the original %#v", s.Name(), back, s)
		}
		if back.Name() != s.Name() {
			t.Errorf("re-parsed Name %q != original %q", back.Name(), s.Name())
		}
	}
	// Grammar heads: each must appear in StrategyNames and parse from a
	// representative spec. A new case in ParseStrategy without a
	// StrategyNames mention fails here.
	heads := map[string]string{
		"exhaustive": "exhaustive",
		"random":     "random:4",
		"halving":    "halving",
		"surrogate":  "surrogate:4",
	}
	for head, example := range heads {
		if !containsHead(StrategyNames, head) {
			t.Errorf("StrategyNames %q does not mention grammar head %q", StrategyNames, head)
		}
		if _, err := ParseStrategy(example, seed); err != nil {
			t.Errorf("representative spec %q: %v", example, err)
		}
	}
}

// containsHead reports whether the comma-separated grammar list names the
// given head (at a term boundary, not as a substring of another head).
func containsHead(names, head string) bool {
	for _, term := range strings.Split(names, ",") {
		term = strings.TrimSpace(term)
		term, _, _ = strings.Cut(term, ":")
		term, _, _ = strings.Cut(term, "[")
		if term == head {
			return true
		}
	}
	return false
}
