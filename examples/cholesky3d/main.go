// Cholesky3D: factor an SPD matrix with the CAPITAL-style recursive
// communication-avoiding Cholesky on a 4x4x4 processor grid, verify the
// factorization numerically, then autotune its 15 configurations (block
// size x base-case strategy) with eager propagation — the paper's headline
// experiment (Figure 4a: up to 7.1x tuning speedup at 98% accuracy).
//
// Run with: go run ./examples/cholesky3d
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"critter"
	"critter/internal/blas"
	"critter/internal/capital"
	"critter/internal/grid"
)

func main() {
	machine := critter.DefaultMachine()
	machine.NoiseSigma = 0.05

	// --- Part 1: one factorization with full execution, verified. ---
	cfg := capital.Config{N: 128, B: 16, BB: 2, Strategy: 2, C: 4}
	var residual float64
	world := critter.NewWorld(64, machine, 11)
	err := world.Run(func(c *critter.RawComm) {
		prof, comm := critter.NewProfiler(c, critter.Options{Policy: critter.Conditional, Eps: 0})
		g := grid.New3D(comm, cfg.C)
		ch := capital.New(prof, g, cfg)
		ch.Run()
		l := ch.GatherFactor(ch.L)
		rep := prof.Report() // collective: every rank participates
		if c.Rank() != 0 {
			return
		}
		n := cfg.N
		a := capital.DenseA(n)
		llt := make([]float64, n*n)
		blas.Dgemm(false, true, n, n, n, 1, l, n, l, n, 0, llt, n)
		num, den := 0.0, 0.0
		for i := range llt {
			d := llt[i] - a[i]
			num += d * d
			den += a[i] * a[i]
		}
		residual = math.Sqrt(num / den)
		fmt.Printf("factorized %dx%d on a %d^3 grid: ||A-LL^T||/||A|| = %.2e\n",
			n, n, cfg.C, residual)
		fmt.Printf("virtual execution time %.5fs; BSP costs: %.3g words, %.0f supersteps, %.3g flops\n",
			rep.Wall, rep.BSPCommCrit, rep.BSPSyncCrit, rep.BSPCompCrit)
	})
	if err != nil {
		log.Fatal(err)
	}
	if !(residual <= 1e-12) {
		log.Fatalf("residual %.2e exceeds 1e-12: the factorization is wrong", residual)
	}

	// --- Part 2: autotune all 15 configurations with eager propagation,
	// through the Tuner (the exhaustive strategy is the default and
	// reproduces the paper's protocol; a context bounds the sweep). This
	// experiment is itself a registered workload — "cholesky3d" in the
	// default registry, with the conditional-vs-eager comparison as its
	// Policies field — so it is resolved by name here, exactly
	// as critter-tune -study cholesky3d or a critter-serve job would.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	wl, ok := critter.LookupWorkload("cholesky3d")
	if !ok {
		log.Fatal("workload cholesky3d is not registered")
	}
	scale, err := critter.WorkloadScale(wl, "default")
	if err != nil {
		log.Fatal(err)
	}
	study := wl.Build(scale)
	res, err := critter.Tuner{
		Study:    study,
		EpsList:  []float64{0.125},
		Machine:  machine,
		Seed:     11,
		Policies: wl.Policies, // conditional, eager
	}.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	cond, eager := res.Sweeps[0][0], res.Sweeps[1][0]
	fmt.Printf("\nexhaustive search over %d configurations (eps = 2^-3):\n", study.Size())
	fmt.Printf("  conditional execution: %.5fs\n", cond.TuneWall)
	fmt.Printf("  eager propagation:     %.5fs  (%.1fx faster)\n",
		eager.TuneWall, cond.TuneWall/eager.TuneWall)
	fmt.Printf("  full execution:        %.5fs  (eager is %.1fx faster)\n",
		eager.FullWall, eager.FullWall/eager.TuneWall)
	fmt.Printf("  eager prediction error: 2^%.1f; selected config %d (%s), optimal %d\n",
		eager.MeanLogExecErr, eager.Selected, study.Label(eager.Selected), eager.Optimal)
}
