// Warm-start: tune the CANDMC QR study cold, export what the run learned
// as a kernel Profile, and tune again warm-started from it.
//
// The cold run pays the paper's full price: every kernel signature must be
// executed until its own confidence interval converges (plus one full
// reference execution per configuration, in both runs). The warm run seeds
// every configuration's prediction model with the prior's kernel models and
// fitted family extrapolators, so signatures the prior already predicts skip
// after a single validation execution — and, because extrapolation is
// enabled, signatures the prior never saw can be skipped through their
// routine family's fit. The executed-kernel counts make the difference
// concrete.
//
// The same profile also transfers across scales: the per-signature models
// stop matching when the matrix grows, but the family fits keep predicting,
// which the final cross-scale run demonstrates.
//
// Run with: go run ./examples/warm-start
package main

import (
	"context"
	"fmt"
	"log"

	"critter"
)

func main() {
	machine := critter.DefaultMachine()
	machine.NoiseSigma = 0.05
	ctx := context.Background()

	study := critter.CandmcQR(critter.QuickScale())
	base := critter.Tuner{
		Study:       study,
		EpsList:     []float64{1.0 / 8},
		Machine:     machine,
		Seed:        11,
		Policies:    []critter.Policy{critter.Online},
		Extrapolate: true,
	}
	fmt.Printf("study %s: %d configurations, eps 2^-3, online propagation\n\n",
		study.Name, study.Size())

	// Cold: nothing known in advance.
	cold, err := base.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	coldSweep := cold.Sweeps[0][0]
	report("cold", study, coldSweep)

	// The sweep's exported profile is the transferable artifact. (On disk
	// this is critter-tune's -profile-out / -profile-in pair; here it just
	// changes hands in memory, through the same serialized form.)
	encoded, err := coldSweep.Profile.Encode()
	if err != nil {
		log.Fatal(err)
	}
	prior, err := critter.DecodeProfile(encoded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexported profile: %d kernel models (%d samples), %d families (%d points), %d path keys\n\n",
		len(prior.Kernels), prior.Samples(), len(prior.Families), prior.FamilyPointCount(), len(prior.PathFreqs))

	// Warm: the same study again, seeded with the prior. WarmStart
	// decorates the search strategy; Tuner.Prior is the equivalent field
	// form.
	warm := base
	warm.Strategy = critter.WarmStart(critter.Exhaustive{}, prior)
	warmRes, err := warm.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	warmSweep := warmRes.Sweeps[0][0]
	report("warm", study, warmSweep)
	fmt.Printf("\nwarm start executed %d fewer kernels (%.1f%% of cold)\n",
		coldSweep.Executed-warmSweep.Executed,
		100*float64(warmSweep.Executed)/float64(coldSweep.Executed))

	// Cross-scale transfer: grow the matrix 2x. Per-signature models no
	// longer match (different tile sizes), but the family fits still
	// predict — only the extrapolator transfers.
	scale := critter.QuickScale()
	scale.CandmcM *= 2
	scale.CandmcN *= 2
	bigStudy := critter.CandmcQR(scale)
	big := base
	big.Study = bigStudy
	bigCold, err := big.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	big.Prior = prior
	bigWarm, err := big.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-scale (%dx%d matrix): cold executed %d, warm-from-small-scale executed %d\n",
		scale.CandmcM, scale.CandmcN,
		bigCold.Sweeps[0][0].Executed, bigWarm.Sweeps[0][0].Executed)
}

func report(label string, study critter.Study, sw critter.SweepResult) {
	fmt.Printf("%-5s executed %6d  skipped %6d (%.1f%% skipped)  tuning %.5fs  selected %d (%s)\n",
		label, sw.Executed, sw.Skipped,
		100*float64(sw.Skipped)/float64(sw.Executed+sw.Skipped),
		sw.TuneWall, sw.Selected, study.Label(sw.Selected))
}
