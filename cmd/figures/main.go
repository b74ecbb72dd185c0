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
// The board is deterministic at any worker count, and main_test.go
// byte-checks it against the committed file. Other scales, seeds, strategies
// and priors are critter-tune's: for instance
//
//	critter-tune -study capital -scale default -policy online -eps 1,0.5,0.25 -json
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

// seed is the noise seed of every run on the board.
const seed = 42

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
}

// run resolves the named workloads at quick scale and tunes them through one
// pool of workers (0 = GOMAXPROCS).
func run(names []string, workers int) ([]section, error) {
	ctx := context.Background()
	noisy := sim.DefaultMachine()
	noisy.NoiseSigma = 0.05
	quiet := noisy
	quiet.NoiseSigma = 0
	secs := make([]section, len(names))
	tuners := make([]autotune.Tuner, len(names))
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
		tuners[i] = autotune.Tuner{
			Study:    st,
			EpsList:  autotune.DefaultEpsList(),
			Machine:  noisy,
			Seed:     seed,
			Strategy: autotune.Exhaustive{},
		}
	}
	results, errs := autotune.RunTuners(ctx, tuners, workers, nil)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, res := range results {
		secs[i].res = res
	}
	return secs, nil
}

// write renders the board: a preamble, then one section per study.
func write(w io.Writer, secs []section) {
	fmt.Fprint(w, `# The paper's figures at quick scale

Regenerate with `+"`go run ./cmd/figures > BENCH_figures.md`"+`; `+"`go test ./cmd/figures`"+`
byte-checks this file. Seed 42, machine noise 0.05, exhaustive search, each
study's own policies, eps = 2^0 .. 2^-10. Times are virtual seconds.
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
