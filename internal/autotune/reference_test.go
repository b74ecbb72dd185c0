package autotune

// Tests of the one reference execution: ConfigResult.Full is a function of
// (study, machine, seed, configuration) and nothing else, each tuner computes
// it once per configuration, and a sweep that dies mid-reference leaves
// nothing behind for the others to trip over.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/sim"
	"critter/internal/stats"
)

// quickStudies are the four case studies at quick scale.
func quickStudies() []Study {
	s := QuickScale()
	return []Study{CapitalCholesky(s), SlateCholesky(s), CandmcQR(s), SlateQR(s)}
}

// TestFullIsOneFactPerConfiguration is the property behind the shared
// reference table: over several seeds and the four quick studies, Full of a
// configuration is bit-identical across every policy, tolerance list,
// strategy, worker count and Tuner.Run call, and equals FullOnlyCtx's report
// for it. Before noise was keyed by what is run, Full depended on how many
// kernels the selective runs of earlier configurations had skipped. Each
// variant first runs on a Study value of its own, so every variant computes
// its references; then all of them run as tuners of one RunTuners pool on a
// single value, which shares one table among them.
func TestFullIsOneFactPerConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs quick sweeps of every study over several seeds")
	}
	variants := []struct {
		spec     string
		policies []critter.Policy // nil: the study's own list (eager for CAPITAL)
		eps      []float64
		workers  int
	}{
		{"exhaustive", nil, []float64{0.5, 0.125}, 3},
		{"exhaustive", []critter.Policy{critter.Online}, []float64{1}, 1},
		{"random:6", []critter.Policy{critter.Local, critter.Online}, []float64{0.25}, 1},
		{"halving", []critter.Policy{critter.Conditional, critter.APriori}, []float64{0.125}, 2},
		{"surrogate:8", []critter.Policy{critter.Local, critter.APriori}, []float64{0.25, 0.0625}, 2},
	}
	for _, seed := range []uint64{1, 7, 42, 1234} {
		for i, st := range quickStudies() {
			t.Run(fmt.Sprintf("%s/seed%d", st.Name, seed), func(t *testing.T) {
				t.Parallel()
				truth, err := FullOnlyCtx(context.Background(), st, quickMachine(), seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				check := func(pass string, res *Result) {
					evaluated := 0
					for pi, row := range res.Sweeps {
						for ei, sw := range row {
							for _, cr := range sw.Configs {
								evaluated++
								if cr.Full != truth[cr.Config] {
									t.Errorf("%s: %s, policy %s eps %g: Full of config %d is %+v, FullOnlyCtx says %+v",
										pass, res.Strategy, res.Policies[pi], res.EpsList[ei], cr.Config, cr.Full, truth[cr.Config])
								}
							}
						}
					}
					if evaluated == 0 {
						t.Errorf("%s: %s evaluated nothing", pass, res.Strategy)
					}
				}
				tuners := make([]Tuner, len(variants))
				for vi, vr := range variants {
					strat, err := ParseStrategy(vr.spec, seed)
					if err != nil {
						t.Fatal(err)
					}
					tuners[vi] = Tuner{
						EpsList: vr.eps, Machine: quickMachine(), Seed: seed,
						Policies: vr.policies, Strategy: strat, Workers: vr.workers,
					}
				}
				for _, tn := range tuners {
					tn.Study = quickStudies()[i]
					res, err := tn.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("own study, workers %d", tn.Workers), res)
				}
				for vi := range tuners {
					tuners[vi].Study = st
				}
				results, errs := RunTuners(context.Background(), tuners, 3, nil)
				for vi, res := range results {
					if errs[vi] != nil {
						t.Fatal(errs[vi])
					}
					check("one shared study", res)
				}
			})
		}
	}
}

// TestReferencesSharedAcrossRuns holds the reference table to its scope, the
// Study value: exhaustive and then random:6 on one built-in quick study at one
// (machine, seed) run each configuration's reference once in total, and so
// does a copy of the value; a new seed or machine computes them again;
// tuners on the value at once, at different seeds, each get their own seed's
// reports; and a copy whose Run is replaced computes its own, which differ
// from the original's, and never reads the original's reports.
func TestReferencesSharedAcrossRuns(t *testing.T) {
	base := CapitalCholesky(QuickScale())
	n := base.Size()
	counts := make([]atomic.Int64, n)
	st := base
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		if cc.Rank() == 0 && isReference(p) {
			counts[v].Add(1)
		}
		base.Run(p, cc, v)
	}
	// refRuns returns how many references ran per configuration since the
	// last call.
	refRuns := func() []int64 {
		out := make([]int64, n)
		for v := range counts {
			out[v] = counts[v].Swap(0)
		}
		return out
	}
	noisier := quickMachine()
	noisier.NoiseSigma *= 2
	// run tunes s on one worker, so no two sweeps miss a slot at once, and
	// checks every Full against FullOnlyCtx at the same machine and seed.
	run := func(s Study, spec string, m sim.Machine, seed uint64) {
		t.Helper()
		strat, err := ParseStrategy(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Tuner{
			Study: s, EpsList: []float64{0.5, 0.125}, Policies: []critter.Policy{critter.Online},
			Machine: m, Seed: seed, Strategy: strat, Workers: 1,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		truth, err := FullOnlyCtx(context.Background(), base, m, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range res.Sweeps[0] {
			for _, cr := range sw.Configs {
				if cr.Full != truth[cr.Config] {
					t.Errorf("%s, eps %g: Full of config %d is %+v, FullOnlyCtx says %+v", spec, sw.Eps, cr.Config, cr.Full, truth[cr.Config])
				}
			}
		}
	}
	// want checks how many references ran per configuration since the last
	// call: once each for the configurations in ran, never for the others.
	want := func(step string, ran func(v int) bool) {
		t.Helper()
		for v, got := range refRuns() {
			w := int64(0)
			if ran(v) {
				w = 1
			}
			if got != w {
				t.Errorf("%s: config %d ran its reference %d times, want %d", step, v, got, w)
			}
		}
	}
	every := func(int) bool { return true }
	none := func(int) bool { return false }

	run(st, "exhaustive", quickMachine(), 42)
	want("exhaustive", every)
	run(st, "random:6", quickMachine(), 42)
	run(st, "exhaustive", quickMachine(), 42)
	cp := st
	run(cp, "random:6", quickMachine(), 42)
	want("random:6 and exhaustive again, on the value and a copy", none)

	sampled := make([]bool, n)
	round, _ := RandomSample{N: 6, Seed: 43}.Plan(st.Space, 0.5).Next(nil)
	for _, v := range round.Configs {
		sampled[v] = true
	}
	run(st, "random:6", quickMachine(), 43)
	want("random:6 at a new seed", func(v int) bool { return sampled[v] })
	run(st, "exhaustive", noisier, 42)
	want("exhaustive on a new machine", every)

	// Tuners on the value at once, each at its own seed: every build
	// replaces the slot set the others were handed, and each run keeps the
	// set it holds. Two sweeps of one run may miss a slot together, so the
	// counts are not checked here.
	var wg sync.WaitGroup
	for _, seed := range []uint64{44, 45, 46} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			truth, err := FullOnlyCtx(context.Background(), base, quickMachine(), seed, 1)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := Tuner{
				Study: st, EpsList: []float64{0.5, 0.125}, Policies: []critter.Policy{critter.Online},
				Machine: quickMachine(), Seed: seed, Workers: 2,
			}.Run(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			for _, sw := range res.Sweeps[0] {
				for _, cr := range sw.Configs {
					if cr.Full != truth[cr.Config] {
						t.Errorf("concurrent run at seed %d, eps %g: Full of config %d is %+v, FullOnlyCtx says %+v", seed, sw.Eps, cr.Config, cr.Full, truth[cr.Config])
					}
				}
			}
		}()
	}
	wg.Wait()
	refRuns()

	// A copy whose Run does more work: its references are its own, and it
	// must compute every one of them rather than read the original's.
	other := st
	var otherRuns atomic.Int64
	other.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		if cc.Rank() == 0 && isReference(p) {
			otherRuns.Add(1)
		}
		p.Kernel("extra", v+1, 0, 0, 0, 1e6, func() {})
		base.Run(p, cc, v)
	}
	run(st, "exhaustive", quickMachine(), 42)
	want("exhaustive back at the first machine and seed", every)
	truth, err := FullOnlyCtx(context.Background(), other, quickMachine(), 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	otherRuns.Store(0)
	res, err := Tuner{
		Study: other, EpsList: []float64{0.5}, Policies: []critter.Policy{critter.Online},
		Machine: quickMachine(), Seed: 42, Workers: 1,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := otherRuns.Load(); got != int64(n) {
		t.Errorf("the copy with its own Run ran %d references, want %d", got, n)
	}
	for _, cr := range res.Sweeps[0][0].Configs {
		if cr.Full != truth[cr.Config] {
			t.Errorf("the copy with its own Run: Full of config %d is %+v, its FullOnlyCtx says %+v", cr.Config, cr.Full, truth[cr.Config])
		}
	}
	want("the copy with its own Run", none)
}

// TestReferenceNoiseFloor measures the part of the prediction error that no
// profiler can remove. ExecErr scores a selective run's prediction against
// the reference's wall time, and the two runs see different noise draws. So
// each configuration's reference runs a second time, under the key of a
// second round, and is scored against the first with the sweep's own
// RelErr/MeanLogErr: wall time against wall time is the noise floor, pinned
// between zero and the smallest exhaustive golden sweep's MeanLogExecErr at
// seed 42. Logged beside it, unpinned: the second run's prediction against
// the first's wall time — the ExecErr of a profiler that skips nothing — and
// a reference's prediction against its own wall time, which no draw touches.
// Nothing a sweep reports changes; this only reads the references.
func TestReferenceNoiseFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick configuration's reference twice")
	}
	const seed = 42
	golden := []string{"capital", "slate-chol", "candmc", "slate-qr"}
	for i, st := range quickStudies() {
		t.Run(st.Name, func(t *testing.T) {
			t.Parallel()
			raw, err := os.ReadFile(filepath.Join("testdata", "envelope_"+golden[i]+"_exhaustive.golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			first := make([]critter.Report, st.Size())
			second := make([]critter.Report, st.Size())
			w := mpi.NewWorld(st.WorldSize, quickMachine(), seed)
			if err := w.Run(func(c *mpi.Comm) {
				ref, refComm := critter.NewReference(c)
				for v := range first {
					a := reference(c, st, ref, refComm, v)
					ck := critter.ConfigKey(st.Name, v)
					ref.StartConfigKeyed(true, ck)
					c.Rekey(runKey(ck, runReference, 1))
					st.Run(ref, refComm, v)
					b := ref.Report()
					if c.Rank() == 0 {
						first[v], second[v] = a, b
					}
				}
			}); err != nil {
				t.Fatal(err)
			}

			n := len(first)
			errs := make([]float64, 3*n) // wall/wall, predicted/wall across runs, within a run
			for v := range first {
				if got := res.Sweeps[0][0].Configs[v]; got.Config != v || got.Full != first[v] {
					t.Fatalf("config %d: the first reference is not the one the golden sweeps scored against", v)
				}
				errs[v] = stats.RelErr(second[v].Wall, first[v].Wall)
				errs[n+v] = stats.RelErr(second[v].Predicted, first[v].Wall)
				errs[2*n+v] = stats.RelErr(first[v].Predicted, first[v].Wall)
			}
			pct := func(l float64) float64 { return 100 * math.Exp2(l) }
			floor := stats.MeanLogErr(errs[:n])
			skipNothing, within := stats.MeanLogErr(errs[n:2*n]), stats.MeanLogErr(errs[2*n:])
			t.Logf("noise floor %.3f (%.2f%%); skip-nothing ExecErr %.3f (%.2f%%); a reference against itself %.3f (%.2f%%)",
				floor, pct(floor), skipNothing, pct(skipNothing), within, pct(within))
			lowest := math.Inf(1)
			for pi, row := range res.Sweeps {
				for ei, sw := range row {
					t.Logf("golden %s eps %g: MeanLogExecErr %.3f (%.2f%%)",
						res.Policies[pi], res.EpsList[ei], sw.MeanLogExecErr, pct(sw.MeanLogExecErr))
					lowest = min(lowest, sw.MeanLogExecErr)
				}
			}
			// -20 is MeanLogErr's floored zero: the second run's wall time
			// equal to the first's in every configuration.
			if !(floor > -20 && floor < lowest) {
				t.Errorf("noise floor %.3f outside (-20, %.3f): want above zero and below every golden sweep's error", floor, lowest)
			}
		})
	}
}

// isReference reports whether p is a reference profiler: cold Conditional at
// tolerance zero. The sweeps of the tests below all run at eps > 0, and
// a-priori's offline pass runs under Online, so nothing else matches.
func isReference(p *critter.Profiler) bool {
	return p.Policy() == critter.Conditional && p.Eps() == 0
}

// TestReferenceRunsOncePerConfiguration counts executions through a wrapped
// Study.Run: a 4-policy x 2-eps exhaustive tuner on one worker runs Size()
// reference executions, not 8*Size(), and the selective work is untouched —
// one run per cell and configuration plus a-priori's offline pass.
func TestReferenceRunsOncePerConfiguration(t *testing.T) {
	st := rampStudy(6)
	st.Policies = []critter.Policy{critter.Conditional, critter.Local, critter.Online, critter.APriori}
	var refRuns, otherRuns atomic.Int64
	run := st.Run
	st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
		if cc.Rank() == 0 {
			if isReference(p) {
				refRuns.Add(1)
			} else {
				otherRuns.Add(1)
			}
		}
		run(p, cc, v)
	}
	res, err := Tuner{
		Study: st, EpsList: []float64{0.5, 0.125}, Machine: quickMachine(), Seed: 11, Workers: 1,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	size := int64(st.Size())
	if got := refRuns.Load(); got != size {
		t.Errorf("%d reference executions, want %d (one per configuration)", got, size)
	}
	// 8 selective runs per configuration, and a-priori's 2 cells run an
	// offline pass each.
	if got := otherRuns.Load(); got != 10*size {
		t.Errorf("%d selective and offline executions, want %d", got, 10*size)
	}
	for _, row := range res.Sweeps {
		for _, sw := range row {
			if int64(len(sw.Configs)) != size {
				t.Errorf("policy %s eps %g evaluated %d configs, want %d", sw.Policy, sw.Eps, len(sw.Configs), size)
			}
		}
	}
}

// TestFailedSweepPublishesNothing kills one sweep of a tuner mid-reference —
// by a panic inside the reference run of configuration 1, and by a
// cancellation raised there — and checks the shared table afterwards: the
// slot of a reference that did not complete stays empty, every filled slot
// holds exactly FullOnlyCtx's report, and the tuner's other sweep completes
// with the result it has in a run where nothing failed.
func TestFailedSweepPublishesNothing(t *testing.T) {
	const failing = 1 // the configuration whose reference run is hit
	base := rampStudy(4)
	truth, err := FullOnlyCtx(context.Background(), base, quickMachine(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tuner := func(st Study) Tuner {
		return Tuner{Study: st, EpsList: []float64{0.5, 0.125}, Machine: quickMachine(), Seed: 5, Workers: 1}
	}
	clean, err := tuner(base).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"panic", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var armed atomic.Bool
			armed.Store(true)
			st := base
			st.Run = func(p *critter.Profiler, cc *critter.Comm, v int) {
				if v == failing && isReference(p) && cc.Rank() == 0 && armed.CompareAndSwap(true, false) {
					if mode == "panic" {
						panic("reference run dies")
					}
					cancel()
				}
				base.Run(p, cc, v)
			}
			res, jobs := tuner(st).build(&progressSink{})
			pool := mpi.NewBufPool()

			// The first sweep fails; the context is its own, so the second
			// sweep is not cancelled with it.
			err := jobs[0].run(ctx, pool)
			switch mode {
			case "panic":
				if err == nil || errors.Is(err, context.Canceled) {
					t.Fatalf("first sweep: err = %v, want the rank's panic", err)
				}
				// The reference of the failing configuration never reported.
				if got := jobs[0].refs[failing].Load(); got != nil {
					t.Errorf("slot %d holds %+v after its reference run panicked", failing, *got)
				}
			case "cancel":
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("first sweep: err = %v, want context.Canceled", err)
				}
				// Cancellation is honoured at the next configuration
				// boundary: the run it interrupted completes and may publish,
				// the configurations after it were never started.
				if got := jobs[0].refs[failing+1].Load(); got != nil {
					t.Errorf("slot %d holds %+v though the sweep stopped before it", failing+1, *got)
				}
			}
			if got := res.Sweeps[0][0]; len(got.Configs) != 0 {
				t.Errorf("failed sweep kept %d configs, want a zeroed cell", len(got.Configs))
			}
			for v := range jobs[0].refs {
				if got := jobs[0].refs[v].Load(); got != nil && *got != truth[v] {
					t.Errorf("slot %d holds %+v, FullOnlyCtx says %+v", v, *got, truth[v])
				}
			}

			if err := jobs[1].run(context.Background(), pool); err != nil {
				t.Fatalf("second sweep: %v", err)
			}
			if got, want := res.Sweeps[0][1], clean.Sweeps[0][1]; !reflect.DeepEqual(got, want) {
				t.Errorf("second sweep differs from the run where nothing failed:\n got %+v\nwant %+v", got, want)
			}
			for v := range jobs[1].refs {
				if got := jobs[1].refs[v].Load(); got == nil || *got != truth[v] {
					t.Errorf("slot %d after the second sweep: %v, want %+v", v, got, truth[v])
				}
			}
		})
	}
}

// TestReferenceMatchesArithmeticTwin: a reference is a clock that runs no
// kernel's arithmetic, and it reports what a profiler that runs all of it
// reports. For every configuration of the four quick studies, the report of
// fullOnlyConfig equals, field for field, that of a world running the same
// configuration under a New profiler with the reference's policy and
// tolerance (Conditional, eps 0), started and keyed as reference starts and
// keys a configuration.
func TestReferenceMatchesArithmeticTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick configuration twice")
	}
	const seed = 42
	machine := quickMachine()
	for _, st := range quickStudies() {
		t.Run(st.Name, func(t *testing.T) {
			pool := mpi.NewBufPool()
			for v := range st.Size() {
				var ref, twin critter.Report
				if err := fullOnlyConfig(context.Background(), st, machine, seed, v, pool, &ref); err != nil {
					t.Fatal(err)
				}
				ck := critter.ConfigKey(st.Name, v)
				err := mpi.NewWorld(st.WorldSize, machine, seed).Run(func(c *mpi.Comm) {
					p, cc := critter.New(c, critter.Options{Policy: critter.Conditional, Eps: 0})
					p.StartConfig(true)
					c.Rekey(runKey(ck, runReference, 0))
					st.Run(p, cc, v)
					r := p.Report()
					if c.Rank() == 0 {
						twin = r
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if twin.Executed == 0 {
					t.Fatalf("config %d: the twin executed no kernel", v)
				}
				if ref != twin {
					t.Errorf("config %d: the reference reports %+v, its arithmetic twin %+v", v, ref, twin)
				}
			}
		})
	}
}

// TestSelectiveMatchesArithmeticTwin: a sweep's selective runs and a-priori
// offline passes run under a clock (runSweep builds its profiler with
// NewClock), and they report and learn exactly what a profiler that runs
// every executed kernel's arithmetic does. For the four quick studies under
// each of their policies at eps 0.5 and 0.125, plus candmc's online sweep
// with Extrapolate on, cold and then warm-started from the cold sweep's
// profile, and one default-scale configuration each of slate-chol and
// slate-qr under online at eps 0.125 (the clock's world keeps no tile and
// skips the input fills, which New does), sweep drives runSweep's loop over
// the configurations once under NewClock and once under New: the reports of
// every offline pass and selective run, and the bytes of the sweep's encoded
// GlobalProfile, are equal. This holds because no library branches on a
// computed value; the test fails for a study that starts to.
func TestSelectiveMatchesArithmeticTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick configuration under every policy twice")
	}
	const seed = 977
	machine := quickMachine()
	type outcome struct {
		reports  []critter.Report
		profile  *critter.Profile
		encoded  []byte
		executed int64
		fitted   int64 // rank 0's extrapolated skips, over the configurations
	}
	// sweep runs configs of st as runSweep runs a one-round plan at
	// opts.Eps, under a profiler from build.
	sweep := func(t *testing.T, st Study, configs []int, opts critter.Options, build func(*mpi.Comm, critter.Options) (*critter.Profiler, *critter.Comm)) outcome {
		t.Helper()
		var out outcome
		err := mpi.NewWorld(st.WorldSize, machine, seed).Run(func(c *mpi.Comm) {
			p, cc := build(c, opts)
			keep := func(r critter.Report) {
				if c.Rank() == 0 {
					out.reports = append(out.reports, r)
					out.executed += r.Executed
				}
			}
			for _, v := range configs {
				ck := critter.ConfigKey(st.Name, v)
				p.StartConfigKeyed(st.ResetStats, ck)
				if opts.Policy == critter.APriori {
					p.SetPolicy(critter.Online)
					p.SetEps(0)
					c.Rekey(runKey(ck, runOffline, 1))
					st.Run(p, cc, v)
					keep(p.Report())
					p.SetAprioriFromPath()
					p.SetPolicy(critter.APriori)
					p.SetEps(opts.Eps)
					p.StartConfig(false)
				}
				c.Rekey(runKey(ck, runSelective, 1))
				st.Run(p, cc, v)
				keep(p.Report())
				if c.Rank() == 0 {
					out.fitted += p.ExtrapolatedSkips()
				}
			}
			g := p.GlobalProfile(0)
			if c.Rank() == 0 {
				data, err := g.Encode()
				if err != nil {
					panic(err)
				}
				out.profile, out.encoded = g, data
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// twin runs sweep under both profilers and holds the clock to New.
	twin := func(t *testing.T, st Study, configs []int, opts critter.Options) outcome {
		t.Helper()
		full := sweep(t, st, configs, opts, critter.New)
		clock := sweep(t, st, configs, opts, critter.NewClock)
		if full.executed == 0 {
			t.Fatal("the sweep executed no kernel")
		}
		if len(clock.reports) != len(full.reports) {
			t.Fatalf("the clock made %d reports, New %d", len(clock.reports), len(full.reports))
		}
		for i := range full.reports {
			if clock.reports[i] != full.reports[i] {
				t.Errorf("run %d: the clock reports %+v, New %+v", i, clock.reports[i], full.reports[i])
			}
		}
		if !bytes.Equal(clock.encoded, full.encoded) {
			t.Errorf("the sweeps' global profiles differ (%d and %d bytes)", len(clock.encoded), len(full.encoded))
		}
		return clock
	}
	every := func(st Study) []int {
		configs := make([]int, st.Size())
		for v := range configs {
			configs[v] = v
		}
		return configs
	}
	for _, st := range quickStudies() {
		for _, pol := range st.Policies {
			for _, eps := range []float64{0.5, 0.125} {
				t.Run(fmt.Sprintf("%s/%s/%g", st.Name, pol, eps), func(t *testing.T) {
					twin(t, st, every(st), critter.Options{Policy: pol, Eps: eps})
				})
			}
		}
	}
	t.Run("warm-extrapolate", func(t *testing.T) {
		st := CandmcQR(QuickScale())
		opts := critter.Options{Policy: critter.Online, Eps: 0.125, Extrapolate: true}
		cold := twin(t, st, every(st), opts)
		opts.Prior = cold.profile
		warm := twin(t, st, every(st), opts)
		if warm.fitted == 0 {
			t.Error("no skip of the warm sweep was decided by a family fit")
		}
	})
	// Default scale: slate-chol at nb 30 with lookahead (8x8 tiles on the
	// 8x8 grid), slate-qr at nb 24, ib 4 on the 8x4 grid.
	for _, tc := range []struct {
		st Study
		v  int
	}{
		{SlateCholesky(DefaultScale()), 9},
		{SlateQR(DefaultScale()), 28},
	} {
		t.Run(fmt.Sprintf("default/%s/%d", tc.st.Name, tc.v), func(t *testing.T) {
			twin(t, tc.st, []int{tc.v}, critter.Options{Policy: critter.Online, Eps: 0.125})
		})
	}
}

// TestTunerRunsNoKernelBody pins what lets the numerics core be a
// correctness path: every run a Tuner makes (references, a-priori offline
// passes and selective runs, with Extrapolate on) is a clock, so under every
// policy the sweeps execute kernels, in the model's sense, and never call a
// kernel's body.
func TestTunerRunsNoKernelBody(t *testing.T) {
	var bodies atomic.Int64
	count := func() { bodies.Add(1) }
	st := Study{
		Name:      "body-count",
		Space:     flatSpace(3),
		WorldSize: 2,
		Policies:  []critter.Policy{critter.Conditional, critter.Local, critter.Online, critter.APriori, critter.Eager},
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			n := 8 << v
			buf := []float64{1}
			for range 8 {
				p.Kernel("work", n, 0, 0, 0, float64(n*n*n), count)
				cc.Allreduce(buf, buf, mpi.OpSum)
			}
		},
	}
	res, err := Tuner{Study: st, EpsList: []float64{0.5, 0.125}, Machine: quickMachine(), Seed: 42, Extrapolate: true}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Sweeps {
		for _, sw := range row {
			if sw.Executed == 0 {
				t.Errorf("%s eps %g: the sweep executed no kernel, so it shows nothing", sw.Policy, sw.Eps)
			}
		}
	}
	if n := bodies.Load(); n != 0 {
		t.Errorf("the tuner called a kernel body %d times, want none", n)
	}
}
