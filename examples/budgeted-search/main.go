// Budgeted-search: tune the CANDMC QR study under the four built-in
// search strategies and compare their cost/quality trade-off.
//
//   - Exhaustive is the paper's protocol: every configuration, once, at the
//     target tolerance.
//   - RandomSample{N: 5} evaluates a third of the space, deterministically
//     sampled, for a hard evaluation budget.
//   - SuccessiveHalving starts with every configuration at a loosened
//     tolerance (cheap: loose tolerances skip most kernels) and halves the
//     survivor set and the tolerance each rung, pruning on Critter's
//     predicted times. Its extra low-fidelity evaluations pay off when
//     target-tolerance runs are expensive — tight tolerances, or studies
//     like CAPITAL whose kernel models persist across configurations —
//     while on reset-per-config studies at loose tolerances exhaustive
//     search can be cheaper.
//   - Surrogate{N: 5} spends the same budget as the random sample but
//     model-guided: after a seeded initial design it fits a quadratic
//     regression surrogate on the predicted times observed so far and
//     picks each next configuration by expected improvement, with a fixed
//     exploration margin. Its plan sees only the results of the
//     configurations it has run.
//
// Results stream in completion order through Tuner.Stream — the iterator
// the serving path consumes — and the whole comparison runs under one
// cancellable context.
//
// Run with: go run ./examples/budgeted-search
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"critter"
)

func main() {
	machine := critter.DefaultMachine()
	machine.NoiseSigma = 0.05
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	study := critter.CandmcQR(critter.QuickScale())
	fmt.Printf("study %s: space of %d configurations", study.Name, study.Size())
	for _, d := range study.Space.Dims {
		fmt.Printf("  [%s: %d points]", d.Name, d.Size())
	}
	fmt.Println()

	for _, strategy := range []critter.Strategy{
		critter.Exhaustive{},
		critter.RandomSample{N: 5, Seed: 7},
		critter.SuccessiveHalving{},
		critter.Surrogate{N: 5, Seed: 7},
	} {
		tn := critter.Tuner{
			Study:    study,
			EpsList:  []float64{1.0 / 128},
			Machine:  machine,
			Seed:     7,
			Policies: []critter.Policy{critter.Online},
			Strategy: strategy,
		}
		for sw, err := range tn.Stream(ctx) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s evaluations %2d  tuning %.5fs  selected %d (%s)  err 2^%.1f\n",
				strategy.Name(), len(sw.Configs), sw.TuneWall,
				sw.Selected, study.Label(sw.Selected), sw.MeanLogExecErr)
		}
	}
}
