package autotune

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"critter/internal/critter"
)

// TestTunerDefaultEstimatorBitIdentical pins the model's two query paths
// to each other: a twin with Extrapolate off and an empty (non-nil) prior
// answers every estimate and predictability query through the keyed,
// prior-merging path instead of the dense id-indexed one, and must produce
// a bit-identical result grid, exported profiles included.
func TestTunerDefaultEstimatorBitIdentical(t *testing.T) {
	base := Tuner{
		Study:    CandmcQR(QuickScale()),
		EpsList:  []float64{0.5, 0.125},
		Machine:  quickMachine(),
		Seed:     7,
		Policies: []critter.Policy{critter.Conditional, critter.Online},
		Workers:  2,
	}
	def, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	twin := base
	twin.Extrapolate = false
	twin.Prior = &critter.Profile{SchemaVersion: critter.ProfileSchemaVersion}
	got, err := twin.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, got) {
		t.Error("keyed prior-merging path differs from the default id-indexed path")
	}
}

// TestSweepProfilesExported checks that every successful sweep carries its
// learned profile: non-empty kernel models and path frequencies, pooled
// across ranks and configurations.
func TestSweepProfilesExported(t *testing.T) {
	res, err := Tuner{
		Study:    SlateCholesky(QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     3,
		Policies: []critter.Policy{critter.Conditional},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Sweeps[0][0].Profile
	if prof == nil || len(prof.Kernels) == 0 || len(prof.PathFreqs) == 0 {
		t.Fatalf("sweep profile missing or empty: %+v", prof)
	}
	if prof.SchemaVersion != critter.ProfileSchemaVersion || prof.Estimator != "ci-mean" {
		t.Errorf("profile not self-describing: version %d estimator %q", prof.SchemaVersion, prof.Estimator)
	}
	// SlateCholesky resets statistics between configurations; the archive
	// must still span the whole space, so the profile has to know kernels
	// from configurations with different tile sizes.
	if sum := Summarize(critter.Conditional.String(), 0.25, prof); sum.Samples == 0 || sum.PathKeys == 0 {
		t.Errorf("summary empty: %+v", sum)
	}
	if mp := MergedProfile(res); mp == nil || len(mp.Kernels) < len(prof.Kernels) {
		t.Error("MergedProfile lost kernels")
	}
	// The profile survives an encode/decode cycle (the -profile-out path).
	data, err := prof.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := critter.DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prof) {
		t.Error("sweep profile does not survive serialization")
	}
}

// TestEagerProfileNotInflated is the regression test for eager-policy
// profile pooling: eager propagation installs one pooled sample set on
// every rank, and the cross-rank export must deduplicate those shared
// copies instead of summing them once per rank. Before the fix an 8-rank
// eager sweep reported ~6x more samples than kernels it executed.
func TestEagerProfileNotInflated(t *testing.T) {
	res, err := Tuner{
		Study:    CapitalCholesky(QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     5,
		Policies: []critter.Policy{critter.Eager},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Sweeps[0][0]
	if sw.Profile == nil || len(sw.Profile.Kernels) == 0 {
		t.Fatal("eager sweep exported no profile")
	}
	pooled := 0
	for _, km := range sw.Profile.Kernels {
		if km.Pooled {
			pooled++
		}
	}
	if pooled == 0 {
		t.Error("no kernel model marked pooled despite eager propagation")
	}
	// The export must not re-sum the shared pooled copies once per rank
	// (which multiplied sample counts by nearly the world size, 8 here).
	// A modest excess over the executed count remains legitimate: eager's
	// live pooling is itself approximate — an imported model replaces a
	// rank's accumulator wholesale, so successive partial pools can
	// re-merge a few samples — but that is bounded far below the
	// per-rank blowup.
	if got := sw.Profile.Samples(); got > 2*sw.Executed {
		t.Errorf("profile holds %d samples for %d executed kernels (pooled copies re-summed per rank?)",
			got, sw.Executed)
	}
}

// TestWarmStartReducesExecutions is the transfer acceptance criterion: a
// profile exported from one run and loaded as a prior measurably reduces
// the executed-kernel count on a second run of the same study, without
// degrading the search result.
func TestWarmStartReducesExecutions(t *testing.T) {
	base := Tuner{
		Study:       CandmcQR(QuickScale()),
		EpsList:     []float64{0.125},
		Machine:     quickMachine(),
		Seed:        11,
		Policies:    []critter.Policy{critter.Online},
		Extrapolate: true,
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldSweep := cold.Sweeps[0][0]
	if coldSweep.Profile == nil {
		t.Fatal("cold run exported no profile")
	}

	warmTuner := base
	warmTuner.Prior = coldSweep.Profile
	warm, err := warmTuner.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warmSweep := warm.Sweeps[0][0]
	if warmSweep.Executed >= coldSweep.Executed {
		t.Errorf("warm run executed %d kernels, cold executed %d — the prior must reduce executions",
			warmSweep.Executed, coldSweep.Executed)
	}
	if len(warmSweep.Configs) != len(coldSweep.Configs) {
		t.Errorf("warm run evaluated %d configs, cold %d", len(warmSweep.Configs), len(coldSweep.Configs))
	}
	// The warm run still tunes: its selection must come from the evaluated
	// space. (Its reference executions are not bit-compared against the
	// cold run's — executing fewer selective kernels consumes fewer noise
	// draws, shifting later configurations' noise streams.)
	evaluated := map[int]bool{}
	for _, cr := range warmSweep.Configs {
		evaluated[cr.Config] = true
	}
	if !evaluated[warmSweep.Selected] {
		t.Errorf("warm run selected config %d outside the evaluated set", warmSweep.Selected)
	}
}

// TestWarmStartStrategyDecorator checks the Strategy carrier: decorating
// any strategy threads the prior into every sweep exactly like Tuner.Prior,
// planning is delegated untouched, and the decorated name marks the run.
func TestWarmStartStrategyDecorator(t *testing.T) {
	base := Tuner{
		Study:    CandmcQR(QuickScale()),
		EpsList:  []float64{0.125},
		Machine:  quickMachine(),
		Seed:     11,
		Policies: []critter.Policy{critter.Online},
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prior := cold.Sweeps[0][0].Profile

	viaPrior := base
	viaPrior.Prior = prior
	a, err := viaPrior.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	viaStrategy := base
	viaStrategy.Strategy = WarmStart(Exhaustive{}, prior)
	b, err := viaStrategy.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy != "warm:exhaustive" {
		t.Errorf("decorated strategy named %q, want warm:exhaustive", b.Strategy)
	}
	if !reflect.DeepEqual(a.Sweeps, b.Sweeps) {
		t.Error("WarmStart strategy and Tuner.Prior produced different sweeps")
	}
	// A nil prior decorates to the inner strategy unchanged; a nil inner
	// defaults to Exhaustive.
	if got := WarmStart(RandomSample{N: 3, Seed: 1}, nil); got.Name() != "random:3" {
		t.Errorf("WarmStart with nil prior renamed the strategy: %q", got.Name())
	}
	if got := WarmStart(nil, prior); got.Name() != "warm:exhaustive" {
		t.Errorf("WarmStart(nil, prior) = %q, want warm:exhaustive", got.Name())
	}
}

// planProbe decorates a strategy to record every plan it hands out. Sweeps
// plan concurrently, hence the mutex.
type planProbe struct {
	inner Strategy
	mu    *sync.Mutex
	plans *[]Plan
}

func (s planProbe) Name() string { return "probe:" + s.inner.Name() }

func (s planProbe) Plan(sp Space, eps float64) Plan {
	p := s.inner.Plan(sp, eps)
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.plans = append(*s.plans, p)
	return p
}

// TestWarmStartHandsOutInnerPlan checks that WarmStart delegates Plan to the
// inner strategy untouched: the plan it returns is the inner strategy's own
// value, a warm sweep plans once, and it evaluates exactly what the inner
// strategy does under the same prior passed as Tuner.Prior. A warm start
// changes the sweep's profiler seeding, never how a stateful plan is driven.
func TestWarmStartHandsOutInnerPlan(t *testing.T) {
	base := Tuner{
		Study:    rampStudy(8),
		EpsList:  []float64{0.25},
		Machine:  quickMachine(),
		Seed:     13,
		Policies: []critter.Policy{critter.Online},
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prior := cold.Sweeps[0][0].Profile
	if prior == nil {
		t.Fatal("cold run exported no profile")
	}

	inner := Surrogate{N: 5, Seed: 13}
	plans := &[]Plan{}
	warmStrat := WarmStart(planProbe{inner: inner, mu: &sync.Mutex{}, plans: plans}, prior)
	if got := warmStrat.Plan(base.Study.Space, 0.25); len(*plans) != 1 || got != (*plans)[0] {
		t.Fatal("WarmStart.Plan did not hand out the inner strategy's plan")
	}
	warm := base
	warm.Strategy = warmStrat
	res, err := warm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "warm:probe:surrogate:5" {
		t.Errorf("strategy recorded as %q", res.Strategy)
	}
	if n := len(*plans) - 1; n != 1 {
		t.Fatalf("the warm sweep planned %d times, want once", n)
	}
	direct := base
	direct.Strategy = inner
	direct.Prior = prior
	want, err := direct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Sweeps[0][0].Configs, want.Sweeps[0][0].Configs) {
		t.Error("warm-started plan evaluated differently from the inner strategy under Tuner.Prior")
	}
}

// TestMergedProfileClonesOnce: on a 12-sweep grid (4 policies × 3 eps),
// MergedProfile encodes to the same bytes as the chained MergeProfiles fold
// over the sweeps in grid order, and makes fewer allocations than that fold,
// which copies the growing profile at every sweep.
func TestMergedProfileClonesOnce(t *testing.T) {
	res, err := Tuner{
		Study:    CapitalCholesky(QuickScale()),
		EpsList:  []float64{0.5, 0.25, 0.125},
		Machine:  quickMachine(),
		Seed:     11,
		Policies: []critter.Policy{critter.Conditional, critter.Local, critter.Online, critter.APriori},
		Workers:  2,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chained := func() *critter.Profile {
		var merged *critter.Profile
		for _, row := range res.Sweeps {
			for _, sw := range row {
				if sw.Profile != nil {
					merged = critter.MergeProfiles(merged, sw.Profile)
				}
			}
		}
		return merged
	}
	sweeps := 0
	for _, row := range res.Sweeps {
		for _, sw := range row {
			if sw.Profile != nil {
				sweeps++
			}
		}
	}
	if sweeps != 12 {
		t.Fatalf("%d sweeps exported a profile, want 12", sweeps)
	}
	want, err := chained().Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergedProfile(res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("MergedProfile differs from the chained MergeProfiles fold")
	}
	once := testing.AllocsPerRun(5, func() { MergedProfile(res) })
	fold := testing.AllocsPerRun(5, func() { chained() })
	if once >= fold {
		t.Errorf("MergedProfile made %v allocations, the chained fold %v; want fewer", once, fold)
	}
	t.Logf("allocations: MergedProfile %v, chained fold %v", once, fold)
}
