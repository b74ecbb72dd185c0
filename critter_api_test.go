package critter_test

// Tests of the public facade: the API a downstream user sees.

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"critter"
	"critter/internal/golden"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	machine := critter.DefaultMachine()
	machine.NoiseSigma = 0.05
	run := func(eps float64) critter.Report {
		world := critter.NewWorld(4, machine, 3)
		var rep critter.Report
		if err := world.Run(func(c *critter.RawComm) {
			prof, comm := critter.NewProfiler(c, critter.Options{
				Policy: critter.Online, Eps: eps,
			})
			buf := make([]float64, 64)
			for i := 0; i < 100; i++ {
				prof.Kernel("work", 64, 0, 0, 0, 1e4, func() {})
				comm.Allreduce(buf, make([]float64, 64), 0)
			}
			r := prof.Report()
			if c.Rank() == 0 {
				rep = r
			}
		}); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := run(0)
	approx := run(0.125)
	if approx.Skipped == 0 {
		t.Fatal("no kernels skipped through the facade")
	}
	if approx.Wall >= full.Wall {
		t.Errorf("selective wall %g not below full %g", approx.Wall, full.Wall)
	}
	if err := math.Abs(approx.Predicted-full.Wall) / full.Wall; err > 0.15 {
		t.Errorf("facade prediction error %g too large", err)
	}
}

func TestFacadeStudyConstructors(t *testing.T) {
	s := critter.QuickScale()
	for _, st := range []critter.Study{
		critter.CapitalCholesky(s),
		critter.SlateCholesky(s),
		critter.CandmcQR(s),
		critter.SlateQR(s),
	} {
		if err := st.Validate(); err != nil || st.Label(0) == "" {
			t.Errorf("%s: incomplete study (%v)", st.Name, err)
		}
	}
	if len(critter.DefaultEpsList()) != 11 {
		t.Error("DefaultEpsList should have 11 points")
	}
}

// TestFacadeExperiment runs the smallest whole tuning experiment through
// the facade: one exhaustive sweep of a built-in study.
func TestFacadeExperiment(t *testing.T) {
	res, err := critter.Tuner{
		Study:    critter.SlateCholesky(critter.QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  critter.DefaultMachine(),
		Seed:     1,
		Policies: []critter.Policy{critter.Conditional},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweeps) != 1 || len(res.Sweeps[0]) != 1 {
		t.Fatalf("unexpected sweep shape")
	}
	sw := res.Sweeps[0][0]
	if len(sw.Configs) != 20 {
		t.Errorf("slate cholesky has %d configs, want 20", len(sw.Configs))
	}
}

func TestFacadeRunTuners(t *testing.T) {
	mk := func(study critter.Study) critter.Tuner {
		return critter.Tuner{
			Study:    study,
			EpsList:  []float64{0.25},
			Machine:  critter.DefaultMachine(),
			Seed:     1,
			Policies: []critter.Policy{critter.Conditional},
		}
	}
	var last critter.Progress
	results, errs := critter.RunTuners(context.Background(), []critter.Tuner{
		mk(critter.CapitalCholesky(critter.QuickScale())),
		mk(critter.SlateCholesky(critter.QuickScale())),
	}, 2, func(ev critter.Progress) { last = ev })
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatalf("pool results incomplete: %v", results)
	}
	if results[0].Study != "capital-cholesky" || results[1].Study != "slate-cholesky" {
		t.Errorf("result order broken: %s, %s", results[0].Study, results[1].Study)
	}
	if last.Done != 2 || last.Total != 2 {
		t.Errorf("final progress %d/%d, want 2/2", last.Done, last.Total)
	}
}

func TestFacadeTunerStrategies(t *testing.T) {
	base := critter.Tuner{
		Study:    critter.CandmcQR(critter.QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  critter.DefaultMachine(),
		Seed:     1,
		Policies: []critter.Policy{critter.Conditional},
	}
	// A nil Strategy is Exhaustive.
	exhaustive, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Strategy = critter.Exhaustive{}
	named, err := explicit.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exhaustive, named) {
		t.Error("Tuner default strategy differs from explicit Exhaustive")
	}
	// A budgeted sample evaluates exactly N configurations of the space.
	sampled := base
	sampled.Strategy = critter.RandomSample{N: 4, Seed: 1}
	res, err := sampled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sweeps[0][0].Configs); got != 4 {
		t.Errorf("random:4 evaluated %d configs", got)
	}
	// The space is exported: decode the selected configuration.
	sp := base.Study.Space
	if sp.Size() != 15 || len(sp.Decode(res.Sweeps[0][0].Selected)) != len(sp.Dims) {
		t.Errorf("study space not usable through the facade: size %d", sp.Size())
	}
}

// TestFacadeSurrogateStrategy exercises the model-guided search surface
// through the public API: the Surrogate strategy value, its ParseStrategy
// grammar, and deterministic re-runs.
func TestFacadeSurrogateStrategy(t *testing.T) {
	base := critter.Tuner{
		Study:    critter.CandmcQR(critter.QuickScale()),
		EpsList:  []float64{0.25},
		Machine:  critter.DefaultMachine(),
		Seed:     1,
		Policies: []critter.Policy{critter.Online},
		Strategy: critter.Surrogate{N: 5, Seed: 1},
	}
	res, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sw := res.Sweeps[0][0]
	if got := len(sw.Configs); got != 5 {
		t.Errorf("surrogate:5 evaluated %d configs", got)
	}
	if res.Strategy != "surrogate:5" {
		t.Errorf("strategy recorded as %q", res.Strategy)
	}
	// The grammar round-trips through the facade parser, and the usage
	// string mentions it.
	parsed, err := critter.ParseStrategy("surrogate:5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, base.Strategy) {
		t.Errorf("ParseStrategy(surrogate:5) = %#v, want %#v", parsed, base.Strategy)
	}
	if !strings.Contains(critter.StrategyNames, "surrogate:") {
		t.Errorf("StrategyNames %q does not mention surrogate", critter.StrategyNames)
	}
	rerun, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, rerun) {
		t.Error("surrogate re-run differs through the facade")
	}
}

func TestFacadeTunerStream(t *testing.T) {
	tn := critter.Tuner{
		Study:    critter.CapitalCholesky(critter.QuickScale()),
		EpsList:  []float64{0.5, 0.25},
		Machine:  critter.DefaultMachine(),
		Seed:     2,
		Policies: []critter.Policy{critter.Conditional},
		Workers:  2,
	}
	n := 0
	for sw, err := range tn.Stream(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.Configs) == 0 {
			t.Errorf("streamed sweep eps %g is empty", sw.Eps)
		}
		n++
	}
	if n != 2 {
		t.Errorf("streamed %d sweeps, want 2", n)
	}
}

// TestFacadeEstimatorAndProfiles exercises the pluggable-estimator surface
// end to end through the public API: a custom estimator threads into the
// Tuner, sweep results export profiles, and a warm start from an exported
// profile reduces executed kernels.
func TestFacadeEstimatorAndProfiles(t *testing.T) {
	base := critter.Tuner{
		Study:       critter.CandmcQR(critter.QuickScale()),
		EpsList:     []float64{0.125},
		Machine:     critter.DefaultMachine(),
		Seed:        5,
		Policies:    []critter.Policy{critter.Online},
		Extrapolate: true,
	}
	cold, err := base.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prof := cold.Sweeps[0][0].Profile
	if prof == nil || len(prof.Kernels) == 0 {
		t.Fatal("no profile exported through the facade")
	}
	// Round trip the artifact the way a user persisting it would.
	data, err := prof.Encode()
	if err != nil {
		t.Fatal(err)
	}
	prior, err := critter.DecodeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	warm := base
	warm.Strategy = critter.WarmStart(critter.Exhaustive{}, prior)
	res, err := warm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps[0][0].Executed >= cold.Sweeps[0][0].Executed {
		t.Errorf("warm start executed %d kernels, cold %d", res.Sweeps[0][0].Executed, cold.Sweeps[0][0].Executed)
	}
	if critter.MergedProfile(res) == nil {
		t.Error("MergedProfile empty through the facade")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[critter.Policy]string{
		critter.Conditional: "conditional",
		critter.Local:       "local",
		critter.Online:      "online",
		critter.APriori:     "apriori",
		critter.Eager:       "eager",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("policy %d name %q, want %q", p, p.String(), want)
		}
	}
}

// facadeRegistrations counts the runs of TestFacadeWorkloadRegistry in this
// process.
var facadeRegistrations int

// TestFacadeWorkloadRegistry: a downstream user can register a custom
// workload through the facade alone and have it resolve everywhere names
// do without touching internal packages.
func TestFacadeWorkloadRegistry(t *testing.T) {
	// The shipped catalog is visible and resolvable.
	var names []string
	for _, w := range critter.Workloads() {
		names = append(names, w.Name)
	}
	for _, want := range []string{"capital", "slate-chol", "candmc", "slate-qr", "cholesky3d", "qr2d"} {
		if !slices.Contains(names, want) {
			t.Errorf("default registry is missing %q (have %v)", want, names)
		}
	}

	// Register a custom workload: a shrunk CANDMC QR under a new name. The
	// default registry lives as long as the process and has no Unregister,
	// so each run of this test (go test -count=N) registers a name of its own.
	facadeRegistrations++
	name := fmt.Sprintf("custom-qr-facade-test-%d", facadeRegistrations)
	custom := critter.Workload{
		Name:        name,
		Description: "facade-registered CANDMC QR variant",
		Build: func(s critter.Scale) critter.Study {
			st := critter.CandmcQR(s)
			st.Name = "custom-qr"
			return st
		},
		Policies: []critter.Policy{critter.Online},
		Scales: []critter.ScalePreset{
			{Name: "tiny", Scale: critter.QuickScale()},
		},
	}
	if err := critter.RegisterWorkload(custom); err != nil {
		t.Fatal(err)
	}
	if err := critter.RegisterWorkload(custom); err == nil {
		t.Error("duplicate facade registration succeeded")
	}

	wl, ok := critter.LookupWorkload(name)
	if !ok {
		t.Fatal("registered workload not found")
	}
	scale, err := critter.WorkloadScale(wl, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := critter.WorkloadScale(wl, "default"); err == nil {
		t.Error("undeclared preset resolved")
	}
	st := wl.Build(scale)
	if st.Name != "custom-qr" || st.Size() <= 0 {
		t.Errorf("built study %+v", st)
	}
}

// TestFacadeObservability: the same tuner run traced through the facade's
// ring and then its JSONL stream yields the same number of wall-stamped
// events, the stream headed by its schema version. Four workers: sweeps
// that race to one reference slot may both run the reference, and a
// reference emits no events, so the counts still agree.
func TestFacadeObservability(t *testing.T) {
	run := func(tracer critter.Tracer) {
		t.Helper()
		machine := critter.DefaultMachine()
		machine.NoiseSigma = 0.05
		_, err := critter.Tuner{
			Study:   critter.CandmcQR(critter.QuickScale()),
			EpsList: []float64{0.5},
			Machine: machine,
			Seed:    7,
			Workers: 4,
			Tracer:  tracer,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
	}
	ring := critter.NewTraceRing(1 << 16)
	run(ring)
	var buf bytes.Buffer
	jsonl := critter.NewTraceJSONL(&buf)
	run(jsonl)

	events := ring.Events()
	if len(events) == 0 || ring.Dropped() != 0 {
		t.Fatalf("ring holds %d events, dropped %d", len(events), ring.Dropped())
	}
	var ev critter.TraceEvent = events[0]
	if ev.WallNanos == 0 {
		t.Error("facade ring tracer did not stamp wall time")
	}
	if jsonl.Err() != nil || jsonl.Count() != uint64(len(events)) {
		t.Errorf("JSONL run saw %d events (err %v), ring run saw %d", jsonl.Count(), jsonl.Err(), len(events))
	}
	header, _, ok := strings.Cut(buf.String(), "\n")
	if !ok || !strings.Contains(header, `"traceSchemaVersion":1`) {
		t.Errorf("JSONL header %q does not carry schema version %d", header, critter.TraceSchemaVersion)
	}
}

// TestFacadeSurface pins the public surface: the sorted exported identifiers
// declared in critter.go must equal testdata/facade.golden, so a change that
// grows or shrinks the facade shows it in one diff. Regenerate with
// `bash scripts/restat.sh`.
func TestFacadeSurface(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "critter.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					add(sp.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						add(id)
					}
				}
			}
		}
	}
	sort.Strings(names)
	golden.Check(t, filepath.Join("testdata", "facade.golden"), []byte(strings.Join(names, "\n")+"\n"))
}
