// Custom-kernel: instrument arbitrary segments of application code as
// Critter kernels — the facility the paper uses for CAPITAL's
// block-to-cyclic redistribution (Section V-D) — and watch the eager policy
// propagate their models across a 2D grid until each kernel's coverage
// spans it.
//
// The program is a toy iterative solver on a 4x4 grid: each iteration packs
// a halo (custom kernel), exchanges it along rows and columns, and applies
// a smoother (custom kernel). Under eager propagation, each kernel is
// switched off everywhere once one rank finds it predictable and its model
// has been propagated along a cartesian basis of channels.
//
// Run with: go run ./examples/custom-kernel
package main

import (
	"fmt"
	"log"

	"critter"
	"critter/internal/grid"
)

func main() {
	machine := critter.DefaultMachine()
	machine.NoiseSigma = 0.04

	world := critter.NewWorld(16, machine, 31)
	err := world.Run(func(c *critter.RawComm) {
		prof, comm := critter.NewProfiler(c, critter.Options{
			Policy: critter.Eager,
			Eps:    0.2,
		})
		g := grid.New2D(comm, 4, 4)

		const nLocal = 1024
		field := make([]float64, nLocal)
		halo := make([]float64, 64)
		norm := make([]float64, 1)
		for iter := 0; iter < 120; iter++ {
			// A user-defined kernel: signature ("halo-pack", sizes),
			// a flop estimate for the machine model, and the code.
			prof.Kernel("halo-pack", nLocal, 64, 0, 0, 2e3, func() {
				for i := range halo {
					halo[i] = field[i*(nLocal/64)]
				}
			})
			// Exchange along both grid dimensions; these bcasts carry
			// the eager policy's model aggregation across the grid's
			// cartesian channels.
			g.Row.Bcast(iter%4, halo)
			g.Col.Bcast(iter%4, halo)
			prof.Kernel("smooth", nLocal, 0, 0, 0, 3e4, func() {
				for i := 1; i < nLocal-1; i++ {
					field[i] = 0.25*field[i-1] + 0.5*field[i] + 0.25*field[i+1]
				}
			})
			g.All.Allreduce([]float64{field[0]}, norm, 0)
		}
		rep := prof.Report()
		if c.Rank() == 0 {
			fmt.Printf("iterations: 120 on a 4x4 grid\n")
			fmt.Printf("kernels propagated across the grid: %d of %d signatures\n",
				prof.PropagatedKernels(), prof.KernelCount())
			fmt.Printf("executed %d, skipped %d; wall %.6fs vs predicted %.6fs\n",
				rep.Executed, rep.Skipped, rep.Wall, rep.Predicted)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
