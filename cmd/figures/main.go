// Command figures writes BENCH_figures.md, the committed board of the
// paper's evaluation (Figures 3, 4 and 5) at quick scale:
//
//	go run ./cmd/figures > BENCH_figures.md
//
// It takes no flags. The four case studies run through one pool of Tuners at
// seed 42, machine noise 0.05, the exhaustive strategy, each study's own
// policies and the paper's tolerance ladder eps = 2^0 .. 2^-10. Per study the
// board gives the full-execution baseline (the red line of Figures 4 and 5),
// the true optimum (the argmin of a full pass on a noise-free machine), one
// row per (policy, eps) with the series of Figures 4-5 a-f and the selection
// table, and one row per configuration with Figure 3's BSP costs and time
// breakdown beside the online policy's prediction errors (Figures 4-5 g-h).
// Figure 3's reports are the exhaustive sweep's ConfigResult.Full, the bits
// FullOnlyCtx would return, so no second full pass runs.
//
// The same pool races random sampling, successive halving and the surrogate
// at online, eps 2^-3, and each study's strategy table scores them against
// the exhaustive sweep of that cell; crossCheck holds every strategy
// evaluation's full-execution report to that sweep's, bit for bit.
//
// The board is deterministic at any worker count, and main_test.go
// byte-checks it against the committed file. Other scales, seeds, strategies
// and priors are critter-tune's: for instance
//
//	critter-tune -study capital -scale default -policy online -eps 1,0.5,0.25 -json
//	critter-tune -study slate-qr -scale quick -strategy halving -policy online -eps 0.03125 -json
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
	"critter/internal/workload"
)

const (
	seed    = 42    // noise seed of every run, sampler seed of every strategy
	raceEps = 0.125 // the tolerance every strategy sweep targets, at online
	epsilon = 0.05  // scoring tolerance: a selection whose gap is within it hits
)

// paperOrder is the order the paper presents its four case studies in.
var paperOrder = []string{"capital", "slate-chol", "candmc", "slate-qr"}

// errEps indexes the tolerances of the per-configuration error columns in
// DefaultEpsList: 2^-2 .. 2^-5.
var errEps = []int{2, 3, 4, 5}

func main() {
	secs, err := run(paperOrder, 0)
	if err == nil {
		var buf bytes.Buffer
		write(&buf, secs)
		_, err = os.Stdout.Write(buf.Bytes())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// section is one study's share of the board.
type section struct {
	study autotune.Study
	res   *autotune.Result
	// truth is a full pass of every configuration on the noise-free machine.
	truth []critter.Report
	// rows scores exhaustive, then each raced strategy.
	rows []row
}

// row is one strategy's line of a study's strategy table.
type row struct {
	strategy string
	executed int64
	frac     float64 // executed relative to the exhaustive sweep's
	selected int
	gap      float64 // selected's full-execution time over the optimum's, minus one
	// toEps is the executed-kernel count after which the running selection
	// entered epsilon of the optimum and stayed; -1 if it never did.
	toEps int64
}

// strategies are the searches raced against exhaustive on a study: random
// sampling and the surrogate get a budget of round(0.4 * size) evaluations,
// at least dims+2 (the surrogate's smallest useful design), at most size.
func strategies(st autotune.Study) []autotune.Strategy {
	n := min(max(int(math.Round(0.4*float64(st.Size()))), len(st.Space.Dims)+2), st.Size())
	return []autotune.Strategy{
		autotune.RandomSample{N: n, Seed: seed},
		autotune.SuccessiveHalving{},
		autotune.Surrogate{N: n, Seed: seed},
	}
}

// run resolves the named workloads at quick scale and tunes them, the
// exhaustive grid and every raced strategy, through one pool of workers
// (0 = GOMAXPROCS).
func run(names []string, workers int) ([]section, error) {
	ctx := context.Background()
	noisy := sim.DefaultMachine()
	noisy.NoiseSigma = 0.05
	quiet := noisy
	quiet.NoiseSigma = 0
	secs := make([]section, len(names))
	var tuners []autotune.Tuner
	first := make([]int, len(names)+1) // study i's tuners are first[i]:first[i+1], exhaustive leading
	for i, name := range names {
		st, err := workload.ResolveStudy(nil, name, "quick")
		if err != nil {
			return nil, err
		}
		truth, err := autotune.FullOnlyCtx(ctx, st, quiet, seed, workers)
		if err != nil {
			return nil, err
		}
		secs[i] = section{study: st, truth: truth}
		tuners = append(tuners, autotune.Tuner{
			Study:    st,
			EpsList:  autotune.DefaultEpsList(),
			Machine:  noisy,
			Seed:     seed,
			Strategy: autotune.Exhaustive{},
		})
		for _, strat := range strategies(st) {
			tuners = append(tuners, autotune.Tuner{
				Study:    st,
				EpsList:  []float64{raceEps},
				Machine:  noisy,
				Seed:     seed,
				Policies: []critter.Policy{critter.Online},
				Strategy: strat,
			})
		}
		first[i+1] = len(tuners)
	}
	results, errs := autotune.RunTuners(ctx, tuners, workers, nil)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i := range secs {
		s := &secs[i]
		s.res = results[first[i]]
		ref := s.res.Sweeps[slices.Index(s.res.Policies, critter.Online)][slices.Index(s.res.EpsList, raceEps)]
		s.rows = []row{score(s.res.Strategy, ref, ref)}
		for _, res := range results[first[i]+1 : first[i+1]] {
			sw := res.Sweeps[0][0]
			if err := crossCheck(ref, sw); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", s.study.Name, res.Strategy, err)
			}
			s.rows = append(s.rows, score(res.Strategy, sw, ref))
		}
	}
	return secs, nil
}

// crossCheck holds a strategy's sweep to ref, the exhaustive sweep of the
// same cell: every evaluation's Full is ref's report for that configuration,
// bit for bit (a reference execution is one fact per study, seed and
// configuration, whichever sweep asks for it), and the sweep's Optimal
// attains the minimum of those reports over the configurations it evaluated.
func crossCheck(ref, sw autotune.SweepResult) error {
	best := math.Inf(1)
	for _, cr := range sw.Configs {
		if want := ref.Configs[cr.Config].Full; cr.Full != want {
			return fmt.Errorf("config %d: full execution %+v differs from the exhaustive sweep's %+v", cr.Config, cr.Full, want)
		}
		best = math.Min(best, cr.Full.Wall)
	}
	if got := ref.Configs[sw.Optimal].Full.Wall; got != best {
		return fmt.Errorf("reported optimal %d (full %g), its evaluated configurations reach %g", sw.Optimal, got, best)
	}
	return nil
}

// score reduces a strategy's sweep to its row against ref, the exhaustive
// sweep whose Configs[v] is configuration v.
func score(name string, sw, ref autotune.SweepResult) row {
	opt := ref.Configs[ref.Optimal].Full.Wall
	gap := func(v int) float64 { return max(ref.Configs[v].Full.Wall/opt-1, 0) }
	r := row{
		strategy: name,
		executed: sw.Executed,
		frac:     float64(sw.Executed) / float64(ref.Executed),
		selected: sw.Selected,
		gap:      gap(sw.Selected),
		toEps:    -1,
	}
	// Walk the evaluations in order, replaying the tuner's
	// last-evaluation-wins argmin over the prefix, to find the executed
	// budget at which the running choice entered epsilon.
	predicted := map[int]float64{}
	var order []int
	var executed int64
	for _, cr := range sw.Configs {
		executed += cr.Selective.Executed
		if _, seen := predicted[cr.Config]; !seen {
			order = append(order, cr.Config)
		}
		predicted[cr.Config] = cr.Selective.Predicted
		choice, best := order[0], predicted[order[0]]
		for _, v := range order[1:] {
			if p := predicted[v]; p < best {
				choice, best = v, p
			}
		}
		if gap(choice) > epsilon {
			r.toEps = -1 // left epsilon again; only a lasting entry counts
		} else if r.toEps < 0 {
			r.toEps = executed
		}
	}
	return r
}

// write renders the board: a preamble, then one section per study.
func write(w io.Writer, secs []section) {
	fmt.Fprint(w, `# The paper's figures at quick scale

Regenerate with `+"`go run ./cmd/figures > BENCH_figures.md`"+`; `+"`go test ./cmd/figures`"+`
byte-checks this file. Seed 42, machine noise 0.05, exhaustive search, each
study's own policies, eps = 2^0 .. 2^-10. Times are virtual seconds.

Each study's strategy table races random sampling, successive halving and the
surrogate against the exhaustive sweep of its `+"`online | -3`"+` row, every one at
the online policy, eps 2^-3 and sampler seed 42; random:N and surrogate:N
evaluate N = round(0.4 × configurations) of the space, at least dims + 2. Gap is
the selected configuration's full-execution time over that of the exhaustive
sweep's optimum, minus one, and a hit is a gap within ε = 0.05; kernels to ε
counts the executed kernels after which the strategy's running choice entered
ε and stayed there.
`)
	for _, s := range secs {
		s.write(w)
	}
}

func (s section) write(w io.Writer) {
	st, res := s.study, s.res
	base := res.Sweeps[0][0] // every sweep of a tuner shares its reference reports
	fullKernel := 0.0
	best := 0
	for v, cr := range base.Configs {
		fullKernel += cr.Full.KernelTime
		if s.truth[v].Wall < s.truth[best].Wall {
			best = v
		}
	}
	gap := 100 * (s.truth[base.Optimal].Wall - s.truth[best].Wall) / s.truth[best].Wall
	fmt.Fprintf(w, "\n## %s (%d configurations)\n\n", st.Name, st.Size())
	fmt.Fprintf(w, "Full execution (the red line): %.5g s, kernel time %.5g s.\n\n", base.FullWall, fullKernel)
	fmt.Fprintf(w, "True optimum: config %d (%s), %.5g s on a noise-free machine. The noisy reference's optimum, config %d, is %.2f%% above it there.\n\n",
		best, st.Label(best), s.truth[best].Wall, base.Optimal, gap)

	// Figures 4-5 a-f and the selection table.
	fmt.Fprintln(w, "| policy | log2 eps | search s | speedup | kernel s | executed | skipped | log2 exec err | log2 comp err | selected | optimal | rel-perf |")
	fmt.Fprintln(w, "|---|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|--:|")
	for pi, pol := range res.Policies {
		for ei, eps := range res.EpsList {
			sw := res.Sweeps[pi][ei]
			rel := sw.Configs[sw.Optimal].Full.Wall / sw.Configs[sw.Selected].Full.Wall
			fmt.Fprintf(w, "| %s | %.0f | %.5g | %.4g | %.5g | %d | %d | %.3f | %.3f | %d | %d | %.1f%% |\n",
				pol, math.Log2(eps), sw.TuneWall, sw.FullWall/sw.TuneWall, sw.KernelTime,
				sw.Executed, sw.Skipped, sw.MeanLogExecErr, sw.MeanLogCompErr,
				sw.Selected, sw.Optimal, 100*rel)
		}
	}

	// The strategy race at online, eps 2^-3.
	fmt.Fprint(w, "\nStrategies at online, eps 2^-3, scored against the exhaustive `online | -3` sweep above.\n\n")
	fmt.Fprintf(w, "| strategy | kernels | %% of exhaustive | selected | gap | hit | kernels to ε |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
	for _, r := range s.rows {
		toEps := "never"
		if r.toEps >= 0 {
			toEps = fmt.Sprint(r.toEps)
		}
		fmt.Fprintf(w, "| %s | %d | %.0f%% | %d | %.2f%% | %v | %s |\n",
			r.strategy, r.executed, 100*r.frac, r.selected, 100*r.gap, r.gap <= epsilon, toEps)
	}

	// Figure 3 and Figures 4-5 g-h.
	online := slices.Index(res.Policies, critter.Online)
	var head strings.Builder
	for _, kind := range []string{"exec", "comp"} {
		for _, ei := range errEps {
			fmt.Fprintf(&head, " %s err %% 2^%.0f |", kind, math.Log2(res.EpsList[ei]))
		}
	}
	fmt.Fprint(w, "\nPer configuration: the reference's BSP costs (crit = critical path, vol = volumetric average) and time breakdown, and the online policy's prediction errors.\n\n")
	fmt.Fprintf(w, "| cfg | params | comm crit | comm vol | sync crit | sync vol | comp crit | comp vol | exec s | comp s | comm s |%s\n", head.String())
	fmt.Fprintln(w, "|--:|---|--:|--:|--:|--:|--:|--:|--:|--:|--:|"+strings.Repeat("--:|", 2*len(errEps)))
	for v, cr := range base.Configs {
		r := cr.Full
		fmt.Fprintf(w, "| %d | %s | %.4g | %.4g | %.4g | %.4g | %.4g | %.4g | %.5g | %.5g | %.5g |",
			v, st.Label(v), r.BSPCommCrit, r.BSPCommVol, r.BSPSyncCrit, r.BSPSyncVol, r.BSPCompCrit, r.BSPCompVol,
			r.Wall, r.PredictedComp, r.PredictedComm)
		var exec, comp strings.Builder
		for _, ei := range errEps {
			e := res.Sweeps[online][ei].Configs[v]
			fmt.Fprintf(&exec, " %.3f |", 100*e.ExecErr)
			fmt.Fprintf(&comp, " %.3f |", 100*e.CompErr)
		}
		fmt.Fprintln(w, exec.String()+comp.String())
	}
}
