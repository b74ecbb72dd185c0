package main

// The paper's bottom-line numbers, accumulated from result grids. They are
// virtual-time quantities, so they depend on the generated inputs (the
// seed) and on nothing else.

import (
	"math"

	"critter/internal/autotune"
)

// errFloor matches stats.MeanLogErr: a perfect prediction counts as 2^-20
// so the geometric mean stays finite.
const errFloor = 9.5367431640625e-07

// paperSums accumulates every sweep a rep evaluated.
type paperSums struct {
	FullWall, TuneWall float64
	LogErrSum          float64
	Evals              int // configuration evaluations
	SelQualitySum      float64
	Sweeps             int
	Executed, Skipped  int64
	Memoized           int64 // observational; excluded from equal()
}

func (p *paperSums) addSweep(sw autotune.SweepResult) {
	p.Sweeps++
	p.FullWall += sw.FullWall
	p.TuneWall += sw.TuneWall
	p.Executed += sw.Executed
	p.Skipped += sw.Skipped
	p.Memoized += sw.KernelsMemoized
	// A rung strategy evaluates a configuration more than once; the last
	// evaluation is the one Selected/Optimal were picked from.
	full := make(map[int]float64, len(sw.Configs))
	for _, cr := range sw.Configs {
		p.Evals++
		p.LogErrSum += math.Log(math.Max(cr.ExecErr, errFloor))
		full[cr.Config] = cr.Full.Wall
	}
	if sel := full[sw.Selected]; sel > 0 {
		p.SelQualitySum += full[sw.Optimal] / sel
	}
}

func (p *paperSums) addResult(res *autotune.Result) {
	for _, row := range res.Sweeps {
		for _, sw := range row {
			p.addSweep(sw)
		}
	}
}

// add folds another accumulator in (the service clients' partial sums).
func (p *paperSums) add(o paperSums) {
	p.FullWall += o.FullWall
	p.TuneWall += o.TuneWall
	p.LogErrSum += o.LogErrSum
	p.Evals += o.Evals
	p.SelQualitySum += o.SelQualitySum
	p.Sweeps += o.Sweeps
	p.Executed += o.Executed
	p.Skipped += o.Skipped
	p.Memoized += o.Memoized
}

func (p paperSums) tuningSpeedup() float64 { return p.FullWall / p.TuneWall }

func (p paperSums) predErrPct() float64 {
	return 100 * math.Exp(p.LogErrSum/float64(p.Evals))
}

func (p paperSums) selectionQuality() float64 { return p.SelQualitySum / float64(p.Sweeps) }

func (p paperSums) executedFrac() float64 {
	return float64(p.Executed) / float64(p.Executed+p.Skipped)
}

// equal reports whether two reps produced the same paper numbers to a
// relative 1e-12 (they are sums in a fixed order, so in practice bit for
// bit).
func (p paperSums) equal(o paperSums) bool {
	close := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	return p.Evals == o.Evals && p.Sweeps == o.Sweeps &&
		p.Executed == o.Executed && p.Skipped == o.Skipped &&
		close(p.FullWall, o.FullWall) && close(p.TuneWall, o.TuneWall) &&
		close(p.LogErrSum, o.LogErrSum) && close(p.SelQualitySum, o.SelQualitySum)
}
