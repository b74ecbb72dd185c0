// Command critter-shootout races the registered search strategies against
// each other on the built-in workloads and scores them against the
// exhaustive sweep's ground truth: for every (workload, strategy) cell it
// reports the executed-kernel budget the strategy spent, the full-execution
// gap of the configuration it selected relative to the space's true
// optimum, and how many executed kernels it needed before its running
// choice was within epsilon of that optimum.
//
// The shootout is fully deterministic: a run's noise is keyed by what is run,
// so repeated runs (at any worker count) produce byte-identical scoreboards,
// and the committed BENCH_shootout.md is held to by byte-compare
// (scripts/shootout-smoke.sh, and main_test.go for the capital section). For
// the same reason every strategy's sweep sees the reference's full-execution
// reports, not a table of its own: crossCheck holds each evaluation to the
// ground truth bit for bit.
//
// Usage:
//
//	critter-shootout -scale quick
//	critter-shootout -scale quick -golden-dir internal/autotune/testdata -require 2
//	critter-shootout -scale quick -markdown BENCH_shootout.md   # regenerate the committed scoreboard
//
// Stdout carries the human-readable scoreboard; stderr only the golden
// cross-check and -require verdicts. -markdown also writes the scoreboard
// as a Markdown file. -golden-dir additionally cross-checks the
// reference exhaustive sweep byte-for-byte against the committed golden
// envelopes, tying the scoreboard's ground truth to the repo's determinism
// anchor. -require N exits nonzero unless the surrogate strategy lands
// within -epsilon of the optimum on at least N workloads while executing
// at most -require-frac of the exhaustive sweep's kernels — the paper-level
// claim CI enforces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
	"critter/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "critter-shootout:", err)
		os.Exit(1)
	}
}

// run is the command: args without the program name, the scoreboard on
// stdout, cross-check and -require verdicts on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("critter-shootout", flag.ExitOnError)
	// The default study list is the four canonical golden-backed workloads;
	// the registry's extra names are aliases (cholesky3d, qr2d) that would
	// duplicate rows.
	studiesFlag := fs.String("studies", "capital,slate-chol,candmc,slate-qr",
		"comma-separated workloads to race (registry: "+strings.Join(workload.Names(), ", ")+")")
	scaleName := fs.String("scale", "quick", "problem scale: "+strings.Join(workload.Default().ScaleNames(), ", "))
	policyFlag := fs.String("policy", "online", "selective-execution policy every sweep runs under")
	epsFlag := fs.Float64("eps", 0.125, "confidence tolerance every sweep targets")
	seed := fs.Uint64("seed", 42, "noise seed")
	noise := fs.Float64("noise", 0.05, "machine noise sigma")
	workers := fs.Int("workers", 0, "concurrent sweep workers (0 = GOMAXPROCS); any count scores identically")
	strategiesFlag := fs.String("strategies", "exhaustive,random:@,halving,surrogate:@",
		"comma-separated strategy specs ("+autotune.StrategyNames+"); @ expands to the per-workload budget")
	budgetFrac := fs.Float64("budget-frac", 0.4, "per-workload budget for @: this fraction of the space size (at least dims+2)")
	epsilon := fs.Float64("epsilon", 0.05, "scoring tolerance: a selection within this fraction of the optimum counts as a hit")
	markdownOut := fs.String("markdown", "", "write the scoreboard as Markdown to this file")
	goldenDir := fs.String("golden-dir", "", "cross-check the reference exhaustive sweep against the golden envelopes in this directory")
	require := fs.Int("require", 0, "exit nonzero unless the surrogate hits epsilon within -require-frac of exhaustive kernels on at least N workloads")
	requireFrac := fs.Float64("require-frac", 0.5, "kernel-budget fraction the -require check holds the surrogate to")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	policy, err := critter.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	machine := sim.DefaultMachine()
	machine.NoiseSigma = *noise

	var boards []*board
	for _, name := range strings.Split(*studiesFlag, ",") {
		name = strings.TrimSpace(name)
		study, err := workload.ResolveStudy(nil, name, *scaleName)
		if err != nil {
			return err
		}
		b, err := race(raceSpec{
			study: study, workload: name,
			policy: policy, eps: *epsFlag, epsilon: *epsilon,
			machine: machine, seed: *seed, workers: *workers,
			specs: expandSpecs(strings.Split(*strategiesFlag, ","), budget(study, *budgetFrac)),
		})
		if err != nil {
			return err
		}
		if *goldenDir != "" {
			switch err := goldenCheck(*goldenDir, name, policy, *epsFlag, b.reference); {
			case os.IsNotExist(err):
				// Not every workload has a committed golden grid; the
				// cross-check anchors the ones that do.
				fmt.Fprintf(stderr, "golden cross-check skipped: no %s\n", goldenPath(*goldenDir, name))
			case err != nil:
				return err
			default:
				fmt.Fprintf(stderr, "golden cross-check ok: %s reference sweep matches %s\n",
					name, goldenPath(*goldenDir, name))
			}
		}
		boards = append(boards, b)
	}

	printBoards(stdout, boards, *epsilon)
	if *markdownOut != "" {
		var md strings.Builder
		writeMarkdown(&md, boards, policy, *epsFlag, *epsilon)
		if err := os.WriteFile(*markdownOut, []byte(md.String()), 0o644); err != nil {
			return err
		}
	}
	if *require > 0 {
		hits := surrogateHits(boards, *requireFrac)
		if hits < *require {
			return fmt.Errorf("surrogate within epsilon at <= %.0f%% of exhaustive kernels on %d workloads, need %d",
				100**requireFrac, hits, *require)
		}
		fmt.Fprintf(stderr, "require ok: surrogate hit epsilon within %.0f%% of exhaustive kernels on %d/%d workloads\n",
			100**requireFrac, hits, len(boards))
	}
	return nil
}

// budget is the evaluation budget @ expands to: a fraction of the space,
// but never below the surrogate's minimum useful initial design.
func budget(study autotune.Study, frac float64) int {
	n := int(math.Round(frac * float64(study.Size())))
	if min := len(study.Space.Dims) + 2; n < min {
		n = min
	}
	if n > study.Size() {
		n = study.Size()
	}
	return n
}

// expandSpecs substitutes the per-workload budget for @ in the strategy
// spec list.
func expandSpecs(specs []string, budget int) []string {
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		out = append(out, strings.ReplaceAll(s, "@", fmt.Sprint(budget)))
	}
	return out
}

// row is one (workload, strategy) cell of the scoreboard.
type row struct {
	Strategy string `json:"strategy"`
	// Executed is the strategy's spent budget: kernels actually executed
	// across its selective sweeps.
	Executed int64 `json:"executed"`
	// KernelFrac is Executed relative to the exhaustive reference.
	KernelFrac float64 `json:"kernelFrac"`
	// Selected is the configuration the strategy chose (argmin predicted).
	Selected int `json:"selected"`
	// Gap is the selected configuration's true (full-execution) time over
	// the space optimum's, minus one; 0 means the strategy found the true
	// optimum. Ground truth is the reference sweep's full executions.
	Gap float64 `json:"gap"`
	// KernelsToEps is the cumulative executed-kernel count after which the
	// strategy's running selection first came (and stayed, as of that
	// evaluation) within epsilon of the optimum; -1 if it never did.
	KernelsToEps int64 `json:"kernelsToEps"`
	// TuneWall is the sweep's total selective virtual time (tuning cost).
	TuneWall float64 `json:"tuneWall"`
}

// board is one workload's scoreboard plus its reference sweep.
type board struct {
	Workload  string `json:"workload"`
	Study     string `json:"study"`
	Configs   int    `json:"configs"`
	Optimal   int    `json:"optimal"`
	Rows      []row  `json:"rows"`
	reference autotune.SweepResult
}

type raceSpec struct {
	study    autotune.Study
	workload string
	policy   critter.Policy
	eps      float64
	epsilon  float64
	machine  sim.Machine
	seed     uint64
	workers  int
	specs    []string
}

// race runs every strategy spec over one workload and scores it against the
// exhaustive reference. The reference is always run (it is the ground
// truth) but appears as a row only when listed.
func race(rs raceSpec) (*board, error) {
	reference, err := runSweep(rs, autotune.Exhaustive{})
	if err != nil {
		return nil, fmt.Errorf("%s: exhaustive reference: %w", rs.workload, err)
	}
	refFull := fullTable(reference)
	truth := make(map[int]critter.Report, len(reference.Configs))
	for _, cr := range reference.Configs {
		truth[cr.Config] = cr.Full
	}
	refOpt := math.Inf(1)
	optimal := -1
	for cfg, full := range refFull {
		if full < refOpt || (full == refOpt && cfg < optimal) {
			refOpt, optimal = full, cfg
		}
	}
	b := &board{
		Workload:  rs.workload,
		Study:     rs.study.Name,
		Configs:   rs.study.Size(),
		Optimal:   optimal,
		reference: reference,
	}
	for _, spec := range rs.specs {
		strat, err := autotune.ParseStrategy(spec, rs.seed)
		if err != nil {
			return nil, err
		}
		sweep := reference
		if strat.Name() != (autotune.Exhaustive{}).Name() {
			if sweep, err = runSweep(rs, strat); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", rs.workload, spec, err)
			}
			if err := crossCheck(truth, sweep); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", rs.workload, spec, err)
			}
		}
		b.Rows = append(b.Rows, score(sweep, strat.Name(), refFull, refOpt, reference.Executed, rs.epsilon))
	}
	return b, nil
}

// runSweep executes one single-cell tuning run and returns its sweep.
func runSweep(rs raceSpec, strat autotune.Strategy) (autotune.SweepResult, error) {
	res, err := autotune.Tuner{
		Study:    rs.study,
		EpsList:  []float64{rs.eps},
		Machine:  rs.machine,
		Seed:     rs.seed,
		Policies: []critter.Policy{rs.policy},
		Strategy: strat,
		Workers:  rs.workers,
	}.Run(context.Background())
	if err != nil {
		return autotune.SweepResult{}, err
	}
	return res.Sweeps[0][0], nil
}

// fullTable maps each configuration the sweep evaluated to its
// full-execution wall time, last evaluation winning (matching the tuner's
// selection rule for rung strategies).
func fullTable(sw autotune.SweepResult) map[int]float64 {
	t := make(map[int]float64, len(sw.Configs))
	for _, cr := range sw.Configs {
		t[cr.Config] = cr.Full.Wall
	}
	return t
}

// crossCheck holds a strategy's sweep to truth, the exhaustive reference's
// full-execution report per configuration: every evaluation's Full is the
// reference's report for that configuration, bit for bit (a reference
// execution is one fact per study, seed and configuration, whichever sweep
// asks for it), and the sweep's Optimal attains the ground truth's minimum
// over the configurations it evaluated — so a strategy that evaluated the
// space's optimum reports it, and Optimal is one fact per study too.
func crossCheck(truth map[int]critter.Report, sw autotune.SweepResult) error {
	best := math.Inf(1)
	for _, cr := range sw.Configs {
		if cr.Full != truth[cr.Config] {
			return fmt.Errorf("config %d: full execution %+v differs from the exhaustive reference's %+v",
				cr.Config, cr.Full, truth[cr.Config])
		}
		best = math.Min(best, cr.Full.Wall)
	}
	if got := truth[sw.Optimal].Wall; got != best {
		return fmt.Errorf("reported optimal %d (full %g), the ground truth over its evaluated configurations has %g",
			sw.Optimal, got, best)
	}
	return nil
}

// score reduces one strategy sweep to its scoreboard row against the
// reference ground truth.
func score(sw autotune.SweepResult, name string, refFull map[int]float64, refOpt float64, refExecuted int64, epsilon float64) row {
	r := row{
		Strategy:     name,
		Executed:     sw.Executed,
		Selected:     sw.Selected,
		KernelsToEps: -1,
		TuneWall:     sw.TuneWall,
	}
	if refExecuted > 0 {
		r.KernelFrac = float64(sw.Executed) / float64(refExecuted)
	}
	if full, ok := refFull[sw.Selected]; ok && refOpt > 0 {
		if r.Gap = full/refOpt - 1; r.Gap < 0 {
			r.Gap = 0
		}
	}
	// Walk the evaluations in order, replaying the tuner's
	// last-evaluation-wins argmin over the prefix, to find the executed
	// budget at which the running choice entered epsilon.
	predicted := map[int]float64{}
	order := []int{}
	var executed int64
	for _, cr := range sw.Configs {
		executed += cr.Selective.Executed
		if _, seen := predicted[cr.Config]; !seen {
			order = append(order, cr.Config)
		}
		predicted[cr.Config] = cr.Selective.Predicted
		choice, best := -1, math.Inf(1)
		for _, cfg := range order {
			if p := predicted[cfg]; p < best {
				choice, best = cfg, p
			}
		}
		if full, ok := refFull[choice]; ok && refOpt > 0 && full/refOpt-1 <= epsilon {
			if r.KernelsToEps < 0 {
				r.KernelsToEps = executed
			}
		} else {
			r.KernelsToEps = -1 // left epsilon again; only a lasting entry counts
		}
	}
	return r
}

// surrogateHits counts the workloads whose surrogate row landed (and
// stayed) within epsilon of the optimum on at most frac of the exhaustive
// kernel budget. KernelsToEps >= 0 encodes the epsilon hit: the walk in
// score resets it whenever the running choice leaves epsilon, so a
// non-negative value means the final selection is inside.
func surrogateHits(boards []*board, frac float64) int {
	hits := 0
	for _, b := range boards {
		for _, r := range b.Rows {
			if strings.HasPrefix(r.Strategy, "surrogate:") && r.KernelsToEps >= 0 && r.KernelFrac <= frac {
				hits++
				break
			}
		}
	}
	return hits
}

// printBoards renders the human-readable scoreboard.
func printBoards(w io.Writer, boards []*board, epsilon float64) {
	for _, b := range boards {
		fmt.Fprintf(w, "\n%s (%s): %d configs, optimal %d, epsilon %g\n",
			b.Workload, b.Study, b.Configs, b.Optimal, epsilon)
		fmt.Fprintf(w, "%-16s %9s %7s %9s %8s %7s %12s\n",
			"strategy", "kernels", "frac", "selected", "gap", "hit", "kernelsToEps")
		for _, r := range b.Rows {
			fmt.Fprintf(w, "%-16s %9d %6.0f%% %9d %7.2f%% %7v %12s\n",
				r.Strategy, r.Executed, 100*r.KernelFrac, r.Selected, 100*r.Gap,
				r.Gap <= epsilon, kte(r.KernelsToEps))
		}
	}
}

func kte(v int64) string {
	if v < 0 {
		return "never"
	}
	return fmt.Sprint(v)
}

// writeMarkdown renders the scoreboard as the committed Markdown artifact.
func writeMarkdown(w io.Writer, boards []*board, policy critter.Policy, eps, epsilon float64) {
	fmt.Fprintf(w, "# Strategy shootout\n\n")
	fmt.Fprintf(w, "Every registered search strategy raced on the built-in workloads and\n")
	fmt.Fprintf(w, "scored against the exhaustive sweep's ground truth (gap = selected\n")
	fmt.Fprintf(w, "configuration's full-execution time over the true optimum's, hit =\n")
	fmt.Fprintf(w, "gap within ε = %g). Every sweep ran under the %s policy at confidence\n", epsilon, policy)
	fmt.Fprintf(w, "tolerance eps = %g; each strategy's kernel count relative to exhaustive\n", eps)
	fmt.Fprintf(w, "depends on both (README, \"Measured and kept\"). Deterministic; regenerate with:\n\n")
	fmt.Fprintf(w, "```\ngo run ./cmd/critter-shootout -scale quick -markdown BENCH_shootout.md\n```\n")
	for _, b := range boards {
		fmt.Fprintf(w, "\n## %s (%s) — %d configs, optimal %d\n\n", b.Workload, b.Study, b.Configs, b.Optimal)
		fmt.Fprintf(w, "| strategy | kernels | %% of exhaustive | selected | gap | hit | kernels to ε |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")
		for _, r := range b.Rows {
			fmt.Fprintf(w, "| %s | %d | %.0f%% | %d | %.2f%% | %v | %s |\n",
				r.Strategy, r.Executed, 100*r.KernelFrac, r.Selected, 100*r.Gap,
				r.Gap <= epsilon, kte(r.KernelsToEps))
		}
	}
}

// goldenPath names the committed golden envelope backing a workload's
// exhaustive reference.
func goldenPath(dir, workload string) string {
	return filepath.Join(dir, "envelope_"+workload+"_exhaustive.golden.json")
}

// goldenCheck ties the shootout's ground truth to the repo's determinism
// anchor: the reference exhaustive sweep must be byte-identical to the
// matching (policy, eps) cell of the committed golden envelope. Golden
// grids exist only for the quick-scale seed-42 noise-0.05 configuration;
// a missing cell is an error (the flag was asked for and cannot hold).
func goldenCheck(dir, workload string, policy critter.Policy, eps float64, ref autotune.SweepResult) error {
	path := goldenPath(dir, workload)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var golden autotune.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for pi, pol := range golden.Policies {
		for ei, e := range golden.EpsList {
			if pol != policy || e != eps {
				continue
			}
			want, err := json.Marshal(golden.Sweeps[pi][ei])
			if err != nil {
				return err
			}
			got, err := json.Marshal(ref)
			if err != nil {
				return err
			}
			if string(got) != string(want) {
				return fmt.Errorf("%s: reference exhaustive sweep diverges from golden cell (policy %s, eps %g): determinism broken or goldens stale", path, pol, e)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: no golden cell for policy %s eps %g", path, policy, eps)
}
