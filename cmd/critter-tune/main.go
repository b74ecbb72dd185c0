// Command critter-tune runs one autotuning study over a grid of
// selective-execution policies and tolerances, printing per-configuration
// reports: full execution time, predicted time, prediction error, and the
// kernel execution/skip counts. The grid runs through a Tuner: -strategy
// selects which configurations each sweep evaluates (exhaustive reproduces
// the paper; random:N, halving, and surrogate:N — the model-guided
// strategy — trade coverage for budget), -timeout cancels the remaining
// work at a deadline, and -workers bounds the concurrent sweep pool.
//
// Usage:
//
//	critter-tune -study capital -policy eager -eps 0.125 [-scale quick]
//	critter-tune -study slate-chol -policy online,apriori -eps 1,0.25,0.0625 -workers 4
//	critter-tune -study candmc -policy online -eps 0.125 -json
//	critter-tune -study slate-qr -strategy random:16 -timeout 30s
//	critter-tune -study candmc -eps 0.125 -extrapolate -profile-out prof.json
//	critter-tune -study candmc -eps 0.125 -extrapolate -profile-in prof.json
//
// -profile-out persists everything the run's selective executions learned
// (kernel models, fitted family extrapolators, path frequencies, merged
// across every sweep) as a versioned JSON profile; -profile-in warm-starts
// a run from such a profile, skipping kernels the prior already predicts.
//
// -json emits a self-describing envelope: a schema version plus the seed,
// scale, noise sigma, and strategy used — and, since schema version 3,
// summaries of the imported and per-sweep exported profiles — so result
// files can be compared across runs.
//
// -trace FILE writes the run's span events (job, sweep, config, strategy
// rounds, kernel-propagation rounds) as JSONL, dual-clocked: virtual time
// from the simulation, wall time stamped at write. Tracing is
// observational only — results and envelopes are byte-identical with it
// on or off. Summarize the file with critter-trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/workload"
)

func main() {
	studyName := flag.String("study", "capital", "workload: "+strings.Join(workload.Default().Names(), ", "))
	policyFlag := flag.String("policy", "online", "comma-separated policies: conditional, local, online, apriori, eager")
	epsFlag := flag.String("eps", "0.125", "comma-separated confidence tolerances (<= 0 disables selective execution)")
	scaleName := flag.String("scale", "default", "problem scale: "+strings.Join(workload.Default().ScaleNames(), ", "))
	seed := flag.Uint64("seed", 42, "noise seed")
	noise := flag.Float64("noise", 0.05, "machine noise sigma")
	workers := flag.Int("workers", 0, "concurrent sweep workers (0 = GOMAXPROCS)")
	strategyFlag := flag.String("strategy", "exhaustive", "search strategy: "+autotune.StrategyNames)
	timeout := flag.Duration("timeout", 0, "overall deadline (0 = none); on expiry remaining sweeps are cancelled")
	jsonOut := flag.Bool("json", false, "emit a self-describing result envelope as JSON instead of tables")
	extrapolate := flag.Bool("extrapolate", false, "enable family-model extrapolation in the selective profilers")
	profileIn := flag.String("profile-in", "", "warm-start every sweep from this kernel profile (JSON, from -profile-out)")
	profileOut := flag.String("profile-out", "", "write the run's merged learned kernel profile to this file")
	traceOut := flag.String("trace", "", "write the run's span events to this file as JSONL (see critter-trace)")
	flag.Parse()

	// The -scale name resolves against the chosen workload's own declared
	// presets, so a preset some other workload registered cannot leak in.
	study, err := workload.ResolveStudy(nil, *studyName, *scaleName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
		os.Exit(2)
	}
	policies, err := parsePolicies(*policyFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
		os.Exit(2)
	}
	epsList, err := parseEpsList(*epsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
		os.Exit(2)
	}
	strategy, err := autotune.ParseStrategy(*strategyFlag, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
		os.Exit(2)
	}
	machine := sim.DefaultMachine()
	machine.NoiseSigma = *noise
	if err := machine.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "critter-tune: -noise: %v\n", err)
		os.Exit(2)
	}

	var prior *critter.Profile
	if *profileIn != "" {
		data, err := os.ReadFile(*profileIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
			os.Exit(2)
		}
		if prior, err = critter.DecodeProfile(data); err != nil {
			fmt.Fprintf(os.Stderr, "critter-tune: %s: %v\n", *profileIn, err)
			os.Exit(2)
		}
	}

	var tracer *obs.JSONL
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		tracer = obs.NewJSONL(f, obs.WallClock())
		tracer.Emit(obs.Event{Kind: obs.KindJob, Phase: obs.PhaseBegin, Name: study.Name})
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	tn := autotune.Tuner{
		Study:       study,
		EpsList:     epsList,
		Machine:     machine,
		Seed:        *seed,
		Policies:    policies,
		Strategy:    strategy,
		Prior:       prior,
		Extrapolate: *extrapolate,
		Workers:     *workers,
	}
	if tracer != nil {
		tn.Tracer = tracer
	}
	res, runErr := tn.Run(ctx)
	if tracer != nil {
		ev := obs.Event{Kind: obs.KindJob, Phase: obs.PhaseEnd, Name: study.Name}
		if runErr != nil {
			ev.Error = runErr.Error()
		}
		tracer.Emit(ev)
		if err := tracer.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "critter-tune: trace %s: %v\n", *traceOut, err)
		} else {
			fmt.Fprintf(os.Stderr, "critter-tune: wrote %d trace events to %s\n", tracer.Count(), *traceOut)
		}
	}
	if runErr != nil {
		// Completed sweeps are still in the grid (failed cells are
		// zeroed); emit them before exiting nonzero, so a -timeout run
		// keeps its partial results.
		fmt.Fprintf(os.Stderr, "critter-tune: %v\n", runErr)
	}

	// Emit the run's output first — even on failure, completed sweeps and
	// the envelope must reach stdout before any exit — then persist the
	// profile artifact.
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tn.Envelope(*scaleName, res)); err != nil {
			fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
			os.Exit(1)
		}
	} else {
		for pi, pol := range res.Policies {
			for ei, eps := range res.EpsList {
				if pi > 0 || ei > 0 {
					fmt.Println()
				}
				sw := res.Sweeps[pi][ei]
				if len(sw.Configs) == 0 && runErr != nil {
					fmt.Printf("study %s  policy %s  eps %g: sweep not run (failed or cancelled)\n",
						study.Name, pol, eps)
					continue
				}
				printSweep(study, pol, eps, sw)
			}
		}
	}
	exit := 0
	if runErr != nil {
		exit = 1
	}
	if *profileOut != "" {
		if err := autotune.WriteProfileFile(*profileOut, autotune.MergedProfile(res)); err != nil {
			fmt.Fprintf(os.Stderr, "critter-tune: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// parsePolicies resolves a comma-separated policy list.
func parsePolicies(s string) ([]critter.Policy, error) {
	var out []critter.Policy
	for _, name := range strings.Split(s, ",") {
		p, err := critter.ParsePolicy(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// parseEpsList resolves a comma-separated tolerance list. Non-finite
// values are rejected at the gate: they would run the full simulation only
// to produce nonsense tables or an unencodable JSON result.
func parseEpsList(s string) ([]float64, error) {
	var out []float64
	for _, field := range strings.Split(s, ",") {
		e, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("bad eps %q", field)
		}
		out = append(out, e)
	}
	return out, nil
}

// printSweep emits one (policy, eps) sweep's per-configuration table and
// summary lines.
func printSweep(study autotune.Study, pol critter.Policy, eps float64, sw autotune.SweepResult) {
	fmt.Printf("study %s  policy %s  eps %g  ranks %d  configs %d  evaluated %d\n",
		study.Name, pol, eps, study.WorldSize, study.Size(), len(sw.Configs))
	fmt.Printf("%-4s %-24s %12s %12s %10s\n", "cfg", "params", "full (s)", "predicted", "err (%)")
	for _, cr := range sw.Configs {
		fmt.Printf("%-4d %-24s %12.5g %12.5g %10.3f\n",
			cr.Config, study.Label(cr.Config), cr.Full.Wall, cr.Selective.Predicted, 100*cr.ExecErr)
	}
	if sw.TuneWall > 0 {
		fmt.Printf("\ntuning time %.5gs vs full execution %.5gs: speedup %.2fx\n",
			sw.TuneWall, sw.FullWall, sw.FullWall/sw.TuneWall)
	} else {
		fmt.Printf("\ntuning time %.5gs vs full execution %.5gs\n", sw.TuneWall, sw.FullWall)
	}
	if total := sw.Executed + sw.Skipped; total > 0 {
		fmt.Printf("kernels executed %d, skipped %d (%.1f%% skipped)\n",
			sw.Executed, sw.Skipped, 100*float64(sw.Skipped)/float64(total))
	} else {
		fmt.Printf("kernels executed 0, skipped 0\n")
	}
	if eps > 0 {
		fmt.Printf("mean log2 prediction error %.2f (eps = 2^%.0f)\n",
			sw.MeanLogExecErr, math.Log2(eps))
	} else {
		fmt.Printf("mean log2 prediction error %.2f (selective execution disabled)\n",
			sw.MeanLogExecErr)
	}
	fmt.Printf("selected config %d (%s); optimal %d (%s)\n",
		sw.Selected, study.Label(sw.Selected), sw.Optimal, study.Label(sw.Optimal))
}
