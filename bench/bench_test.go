package main

// Self-tests of the harness: the arithmetic the report rests on, the
// contract file, and a scaled-down rep of every workload. They run in a
// few seconds (go test ./... from bench/).

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 50, false, 0},
		{20, 50, true, 10},
		{199, 95, false, 0},
		{200, 95, true, 190},
		{100, 90, true, 90},
		{99, 90, false, 0},
		{40, 75, true, 30},
	}
	for _, c := range cases {
		got, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.p, c.n, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.p, c.n, got, c.want)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(xs(1000), p); err == nil {
			t.Errorf("percentile %g accepted", p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of [1 2] = %g, %g; want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of [3 1 4 1 5] = %g, %g; want 1, 4.5", q1, q3)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []spanData{
		{ID: 1, Track: 0, Name: "rep", StartNs: 0, EndNs: 100, Rep: 1},
		{ID: 2, Parent: 1, Track: 0, Name: "a", StartNs: 10, EndNs: 40, Rep: 1},
		{ID: 3, Parent: 1, Track: 0, Name: "b", StartNs: 50, EndNs: 70, Rep: 1},
		{ID: 4, Parent: 2, Track: 0, Name: "a.inner", StartNs: 15, EndNs: 25, Rep: 1},
		// A concurrent actor: the parent waits for it, and that wait is
		// the parent's own time.
		{ID: 5, Parent: 1, Track: 1, Name: "client", StartNs: 0, EndNs: 90, Rep: 1},
		{ID: 6, Parent: 5, Track: 1, Name: "job", StartNs: 5, EndNs: 85, Rep: 1},
	}
	fillSelfTimes(spans)
	want := []int64{50, 20, 20, 10, 10, 80}
	for i, s := range spans {
		if s.SelfNs != want[i] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.SelfNs, want[i])
		}
	}
	if b := trackBalance(spans); b != 0 {
		t.Errorf("balance of a well-nested trace = %g, want 0", b)
	}
	// Siblings that overlap on one track break the sum: the parent is
	// charged their union, each of them its whole duration.
	spans[2].StartNs = 30
	fillSelfTimes(spans)
	if spans[0].SelfNs != 40 {
		t.Errorf("overlapping children: parent self = %d, want 40", spans[0].SelfNs)
	}
	if b := trackBalance(spans); math.Abs(b-0.1) > 1e-12 {
		t.Errorf("balance with overlapping siblings = %g, want 0.1", b)
	}
	// A child that outlasts its parent is clipped to it.
	spans[2].StartNs, spans[2].EndNs = 50, 130
	fillSelfTimes(spans)
	if spans[0].SelfNs != 20 {
		t.Errorf("child outlasting parent: parent self = %d, want 20", spans[0].SelfNs)
	}
}

func TestSpanRecorder(t *testing.T) {
	var off *spanRec
	off.setRep(3)
	sp := off.begin(nil, 0, "x", "")
	sp.end() // a nil recorder records nothing and never panics
	if sp != nil {
		t.Fatal("nil recorder returned a span")
	}

	rec := newSpanRec("w")
	rec.setRep(2)
	root := rec.begin(nil, 0, "rep", "")
	child := rec.begin(root, 0, "child", "attr")
	time.Sleep(time.Millisecond)
	child.end()
	root.end()
	spans := rec.finish()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Rep != 2 || spans[1].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].SelfNs != spans[0].durNs()-spans[1].durNs() || spans[1].durNs() <= 0 {
		t.Errorf("self time arithmetic: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 2 {
		t.Errorf("span file has %d lines, want 2", n)
	}
}

func TestJobMixIsAPureFunctionOfTheSeed(t *testing.T) {
	for client := 0; client < serveClients; client++ {
		a := planClient(7, client, jobsPerClient)
		b := planClient(7, client, jobsPerClient)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("client %d: two plans from one seed differ", client)
		}
		if reflect.DeepEqual(a, planClient(8, client, jobsPerClient)) {
			t.Errorf("client %d: seeds 7 and 8 give the same plan", client)
		}
		kinds := map[jobKind]int{}
		seeds := map[string]bool{}
		for i, pj := range a {
			kinds[pj.Kind]++
			switch pj.Kind {
			case jobFresh:
				if seeds[string(pj.Body)] {
					t.Errorf("client %d job %d: fresh spec repeats an earlier one", client, i)
				}
				seeds[string(pj.Body)] = true
			case jobResubmit:
				if pj.Ref >= i || a[pj.Ref].Kind != jobFresh || !a[pj.Ref].Cold || !bytes.Equal(pj.Body, a[pj.Ref].Body) {
					t.Errorf("client %d job %d: resubmission of %d is not an earlier cold fresh spec", client, i, pj.Ref)
				}
			case jobReread:
				if pj.Ref >= i || a[pj.Ref].Kind != jobFresh {
					t.Errorf("client %d job %d: re-read of %d is not an earlier fresh job", client, i, pj.Ref)
				}
			}
			if pj.Study != clientStudies[client][0] && pj.Study != clientStudies[client][1] {
				t.Errorf("client %d job %d: study %s is another client's", client, i, pj.Study)
			}
		}
		n := jobsPerClient
		if kinds[jobFresh] != n*6/10 || kinds[jobResubmit] != n*3/10 || kinds[jobReread] != n/10 {
			t.Errorf("client %d: mix %v, want 60/30/10 of %d", client, kinds, n)
		}
		// The seed orders the jobs; what each life of the service is
		// given does not depend on it.
		firstLife := func(plan []plannedJob) map[string]int {
			counts := map[string]int{}
			for _, pj := range plan[:n/2] {
				counts[pj.Kind.String()]++
				if pj.Kind == jobFresh {
					counts[pj.Study]++
				}
			}
			return counts
		}
		if x, y := firstLife(a), firstLife(planClient(8, client, n)); !reflect.DeepEqual(x, y) {
			t.Errorf("client %d: before the restart seed 7 runs %v, seed 8 %v", client, x, y)
		}
	}
}

func TestFoldShares(t *testing.T) {
	// Stacks as `go tool pprof -traces` prints them: leaf first.
	samples := []stackSample{
		{[]string{"critter/internal/blas.Dgemm", "critter/internal/slate.(*chol).update", "critter/internal/autotune.runSweep", "runtime.goexit"}, 40},
		{[]string{"runtime.memmove", "critter/internal/lapack.Dgeqr2", "critter/internal/slate.qrPanel"}, 10},
		// An allocation inside mpi is mpi's time; stats under critter is critter's.
		{[]string{"runtime.mallocgc", "runtime.growslice", "critter/internal/mpi.(*fabric[...]).send", "critter/internal/critter.(*Comm).Send"}, 10},
		{[]string{"critter/internal/stats.(*Welford).Add", "critter/internal/critter.(*Profiler).record", "critter/internal/candmc.run"}, 5},
		{[]string{"critter/internal/capital.trsm3d"}, 5},
		{[]string{"encoding/json.(*encodeState).string", "encoding/json.Marshal", "critter/internal/service.writeJSON"}, 6},
		{[]string{"critter/internal/service.(*Scheduler).submit", "net/http.HandlerFunc.ServeHTTP"}, 2},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "critter/internal/store.(*Store).commit", "critter/internal/service.(*Scheduler).persistJobs"}, 2},
		{[]string{"critter/internal/surrogate.(*Model).Fit", "critter/internal/autotune.(*surrogatePlan).Next"}, 1},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, 9},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, 6},
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, 3},
		{[]string{"main.spinMS", "main.runTimed", "main.main", "runtime.main"}, 1},
	}
	got := foldShares(samples)
	want := map[string]float64{
		"blas": 40, "lapack": 10, "mpi": 10, "critter": 5, "libs": 5, "json": 6,
		"service": 2, "store": 2, "surrogate": 1, "go-gc": 9, "go-sched": 6, "other": 4,
		"autotune": 0, "obs": 0,
	}
	if len(got) != len(shareNames) {
		t.Fatalf("%d shares, want %d", len(got), len(shareNames))
	}
	sum := 0.0
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("share %s = %g, want %g", name, got[name], w)
		}
		sum += got[name]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	for name, v := range foldShares(nil) {
		if v != 0 {
			t.Errorf("empty profile: share %s = %g", name, v)
		}
	}
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		spinMS()
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	seen := false
	for _, s := range samples {
		total += s.value
		for _, fn := range s.funcs {
			if fn == "critter/bench.spinMS" || fn == "main.spinMS" {
				seen = true
			}
		}
	}
	if total <= 0 || !seen {
		t.Errorf("decoded %d samples, total %d ns, spinMS seen: %v", len(samples), total, seen)
	}
	if _, err := decodeProfile([]byte{0x12, 0xff}); err == nil {
		t.Error("truncated profile accepted")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is outside the contract's alphabet", kind, name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better = %q", kind, name, better)
		}
	}
	for _, w := range workloadDefs {
		check("workload", w.Name, "", "")
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if !hasSetup || endToEnd[0].Name != "setup_s" {
		t.Error("setup_s missing or not first")
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name, m.Unit, m.Better)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloadDefs))
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go has %d", file.RunSeconds, runSeconds)
	}
	if want := append(benchmarkJSON(), '\n'); !bytes.Equal(data, want) {
		t.Error("BENCHMARK.json is not what `bench -spec` prints; regenerate it")
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound == nil || *f.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, f, m)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		f := file.PerLayer[i]
		if f.Name != m.Name || f.Unit != m.Unit || f.Better != m.Better || f.Bound != nil {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, f, m)
		}
	}
}

func TestRepCount(t *testing.T) {
	def := workloadDef{RepSeconds: 1.25, MinReps: 3}
	for _, c := range []struct {
		seconds float64
		want    int
	}{{15, 12}, {20, 16}, {1, 3}, {4.4, 4}} {
		if got := def.repCount(c.seconds); got != c.want {
			t.Errorf("repCount(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	if w := worsening("lower", 10, 11); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11: worsening %g", w)
	}
	if w := worsening("higher", 10, 11); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11: worsening %g", w)
	}
	mk := func(seed uint64, vals map[string][]float64) *report {
		w := workloadReport{Name: "w"}
		for _, name := range []string{"setup_s", "wall_s", "alloc_mb"} {
			w.EndToEnd = append(w.EndToEnd, metricValues{Name: name, Better: "lower", Bound: 0.1, Values: vals[name]})
		}
		w.EndToEnd = append(w.EndToEnd, metricValues{
			Name: "executed_frac", Better: "lower", Bound: 0.1, SeedDetermined: true, Values: vals["executed_frac"],
		})
		return &report{Schema: reportSchema, Seed: seed, Workloads: []workloadReport{w}}
	}
	before := mk(42, map[string][]float64{"setup_s": {1, 1.01, 0.99}, "wall_s": {2, 2.02, 1.98}, "alloc_mb": {3, 4, 5, 3.5}, "executed_frac": {0.5, 0.5}})
	after := map[string][]float64{"setup_s": {1.2, 1.21, 1.19}, "wall_s": {1.7, 1.71, 1.69}, "alloc_mb": {3, 3, 3, 3}, "executed_frac": {0.5001, 0.5001}}
	// With one seed a seed-determined metric is held to exactTol; with two
	// seeds only to its bound.
	for _, c := range []struct {
		afterSeed uint64
		want      []string
	}{
		{42, []string{verdictWorse, verdictBetter, verdictUnresolved, verdictWorse}},
		{7, []string{verdictWorse, verdictBetter, verdictUnresolved, verdictSame}},
	} {
		rows := compareReports(before, mk(c.afterSeed, after))
		if len(rows) != len(c.want) {
			t.Fatalf("%d rows", len(rows))
		}
		for i, r := range rows {
			if r.Verdict != c.want[i] {
				t.Errorf("after seed %d: %s: verdict %s, want %s", c.afterSeed, r.Metric, r.Verdict, c.want[i])
			}
		}
		var buf bytes.Buffer
		if worse, unresolved := printCompare(&buf, rows); unresolved != 1 {
			t.Errorf("after seed %d: worse %d unresolved %d\n%s", c.afterSeed, worse, unresolved, buf.String())
		}
	}
}

// TestAAHoldsSeedDeterminedMetricsExact: two runs of one build have one
// seed, so a seed-determined metric that moves at all is over its bound.
func TestAAHoldsSeedDeterminedMetricsExact(t *testing.T) {
	mk := func(frac2 float64) *report {
		return &report{Workloads: []workloadReport{{Name: "w", EndToEnd: []metricValues{
			{Name: "wall_s", Better: "lower", Bound: 0.25, Values: []float64{2, 2.2}},
			{Name: "executed_frac", Better: "lower", Bound: 0.05, SeedDetermined: true, Values: []float64{0.5, frac2}},
		}}}}
	}
	var buf bytes.Buffer
	if over, _ := printAA(&buf, mk(0.5)); over != 0 {
		t.Errorf("identical values: %d over\n%s", over, buf.String())
	}
	if over, _ := printAA(&buf, mk(0.5+1e-9)); over != 1 {
		t.Errorf("a 2e-9 relative difference of a seed-determined metric: %d over\n%s", over, buf.String())
	}
}

// TestAccountCountsAFailedRepOnce: however many checks a rep fails, its
// operations are failed once, so failed never exceeds attempted.
func TestAccountCountsAFailedRepOnce(t *testing.T) {
	ref := repOutput{ops: 10, paper: paperSums{Evals: 10, Sweeps: 1}}
	bad := repOutput{ops: 10, failed: 3, digest: [32]byte{1}, paper: paperSums{Evals: 9, Sweeps: 1}}
	tr := &timedRun{}
	tr.account("warm-up rep 1", ref, ref)
	tr.account("rep 1", bad, ref)
	if tr.Ops != 20 || tr.Failed != 10 || len(tr.Failures) != 3 {
		t.Errorf("attempted %d failed %d failures %q", tr.Ops, tr.Failed, tr.Failures)
	}
}

// TestSmokeWorkloads runs two scaled-down reps of every workload: every
// gate green, and the second rep's results equal to the first's.
func TestSmokeWorkloads(t *testing.T) {
	env := &runEnv{root: "..", tmpDir: t.TempDir(), smoke: true}
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			w, err := newWorkload(def.Name, goldenSeed, env)
			if err != nil {
				t.Fatal(err)
			}
			rec := newSpanRec(def.Name)
			var retained float64
			_, first, err := measureRep(context.Background(), w, rec, 1, true, &retained)
			if err != nil {
				t.Fatal(err)
			}
			s, second, err := measureRep(context.Background(), w, nil, 2, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if first.ops == 0 || first.failed != 0 || second.failed != 0 {
				t.Errorf("ops %d, failed %d and %d", first.ops, first.failed, second.failed)
			}
			if first.digest != second.digest || !first.paper.equal(second.paper) {
				t.Error("two reps of one seed disagree")
			}
			if first.paper.Evals == 0 || retained <= 0 || s.WallS <= 0 || s.AllocMB <= 0 {
				t.Errorf("evals %d, retained %g, sample %+v", first.paper.Evals, retained, s)
			}
			if def.Name == "serve-mixed" && len(first.latencies) != first.ops {
				t.Errorf("%d latencies for %d jobs", len(first.latencies), first.ops)
			}
			spans := rec.finish()
			if b := trackBalance(spans); b > 0.02 {
				t.Errorf("span tracks out of balance by %g", b)
			}
			if len(spanDurations(spans, "autotune.run", "")) == 0 || first.counts["autotune.configs"] == 0 {
				t.Errorf("traced rep: %d spans, counts %v", len(spans), first.counts)
			}
		})
	}
}
