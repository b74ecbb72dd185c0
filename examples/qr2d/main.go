// QR2D: factor a tall matrix with the CANDMC-style pipelined 2D Householder
// QR (TSQR panels + Householder reconstruction), verify the triangular
// factor through the Gram identity A^T A = R^T R, and compare the two panel
// algorithms (TSQR vs CholeskyQR2) under the profiler.
//
// Run with: go run ./examples/qr2d
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"critter"
	"critter/internal/blas"
	"critter/internal/candmc"
	"critter/internal/grid"
)

func main() {
	machine := critter.DefaultMachine()
	machine.NoiseSigma = 0.05

	for _, panel := range []candmc.PanelMethod{candmc.PanelTSQR, candmc.PanelCholQR2} {
		cfg := candmc.Config{
			M: 512, N: 128, B: 8,
			PR: 8, PC: 8,
			Panel: panel,
		}
		var residual float64
		world := critter.NewWorld(64, machine, 23)
		err := world.Run(func(c *critter.RawComm) {
			prof, comm := critter.NewProfiler(c, critter.Options{Policy: critter.Conditional, Eps: 0})
			g := grid.New2D(comm, cfg.PR, cfg.PC)
			a := candmc.NewMatrix(g, cfg)
			a.FillGeneral(23)
			orig := a.GatherDense(0)
			candmc.QR(prof, a, cfg)
			r := a.GatherDense(0)
			rep := prof.Report() // collective: every rank participates
			if c.Rank() != 0 {
				return
			}
			m, n := cfg.M, cfg.N
			for j := 0; j < n; j++ {
				for i := j + 1; i < m; i++ {
					r[i+j*m] = 0
				}
			}
			ata := make([]float64, n*n)
			rtr := make([]float64, n*n)
			blas.Dgemm(true, false, n, n, m, 1, orig, m, orig, m, 0, ata, n)
			blas.Dgemm(true, false, n, n, m, 1, r, m, r, m, 0, rtr, n)
			num, den := 0.0, 0.0
			for i := range ata {
				d := ata[i] - rtr[i]
				num += d * d
				den += ata[i] * ata[i]
			}
			residual = math.Sqrt(num / den)
			fmt.Printf("%-8s panel: %dx%d b=%d on %dx%d grid: ||A^TA-R^TR||/||A^TA|| = %.2e, exec %.5fs, %d kernel signatures\n",
				cfg.Panel, m, n, cfg.B, cfg.PR, cfg.PC,
				residual, rep.Wall, prof.KernelCount())
		})
		if err != nil {
			log.Fatal(err)
		}
		if !(residual <= 1e-12) {
			log.Fatalf("%s panel: residual %.2e exceeds 1e-12: the factorization is wrong", cfg.Panel, residual)
		}
	}

	// Autotune block size and grid shape (the paper's Figure 5a study).
	// The study is the registered "qr2d" workload (its Policies field
	// declares online propagation), resolved by name through the registry
	// like any CLI or service job, and swept exhaustively — the Tuner's
	// default strategy (see examples/budgeted-search for the others).
	wl, ok := critter.LookupWorkload("qr2d")
	if !ok {
		log.Fatal("workload qr2d is not registered")
	}
	scale, err := critter.WorkloadScale(wl, "default")
	if err != nil {
		log.Fatal(err)
	}
	study := wl.Build(scale)
	res, err := critter.Tuner{
		Study:    study,
		EpsList:  []float64{0.25},
		Machine:  machine,
		Seed:     23,
		Policies: wl.Policies, // online
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	sw := res.Sweeps[0][0]
	fmt.Printf("\ntuned %d configurations: %.4fs selective vs %.4fs full (%.2fx), err 2^%.1f\n",
		study.Size(), sw.TuneWall, sw.FullWall, sw.FullWall/sw.TuneWall, sw.MeanLogExecErr)
	fmt.Printf("best configuration: %d (%s)\n", sw.Selected, study.Label(sw.Selected))
}
