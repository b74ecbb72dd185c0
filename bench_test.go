package critter_test

// Ablation benches: each isolates one mechanism of the paper (frequency
// propagation, eager reuse, the noise floor, the collective cost model,
// line-fitting extrapolation), runs the quick-scale experiment behind it and
// prints the outcome on its first iteration. Every timing the repository
// tracks lives in bench/ (per-layer probes and the four workloads); the
// paper's figure series are the committed board BENCH_figures.md, which
// `go run ./cmd/figures > BENCH_figures.md` regenerates; the benchmarks
// with an allocation budget are in bench_runtime_test.go.

import (
	"context"
	"fmt"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/sim"
)

func benchMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.05
	return m
}

// BenchmarkAblationFreqPropagation isolates the sqrt(alpha) confidence
// credit: online propagation versus conditional execution (which never
// credits counts) on the same study; the metric of interest is executions
// saved at equal tolerance.
func BenchmarkAblationFreqPropagation(b *testing.B) {
	study := autotune.SlateCholesky(autotune.QuickScale())
	for i := 0; i < b.N; i++ {
		res, err := autotune.Tuner{
			Study:    study,
			EpsList:  []float64{0.125},
			Machine:  benchMachine(),
			Seed:     42,
			Policies: []critter.Policy{critter.Conditional, critter.Online},
		}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cond, online := res.Sweeps[0][0], res.Sweeps[1][0]
			fmt.Printf("# ablation freq-propagation: conditional executed %d, online executed %d (%.1f%% saved), err cond 2^%.2f online 2^%.2f\n",
				cond.Executed, online.Executed,
				100*(1-float64(online.Executed)/float64(cond.Executed)),
				cond.MeanLogExecErr, online.MeanLogExecErr)
		}
	}
}

// BenchmarkAblationEager isolates cross-configuration model reuse: eager
// propagation versus conditional execution on CAPITAL (whose kernels recur
// across configurations).
func BenchmarkAblationEager(b *testing.B) {
	study := autotune.CapitalCholesky(autotune.QuickScale())
	for i := 0; i < b.N; i++ {
		res, err := autotune.Tuner{
			Study:    study,
			EpsList:  []float64{0.125},
			Machine:  benchMachine(),
			Seed:     42,
			Policies: []critter.Policy{critter.Conditional, critter.Eager},
		}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cond, eager := res.Sweeps[0][0], res.Sweeps[1][0]
			fmt.Printf("# ablation eager: tuning time conditional %.4gs, eager %.4gs (%.2fx), err cond 2^%.2f eager 2^%.2f\n",
				cond.TuneWall, eager.TuneWall, cond.TuneWall/eager.TuneWall,
				cond.MeanLogExecErr, eager.MeanLogExecErr)
		}
	}
}

// BenchmarkAblationNoise sweeps the machine noise level: prediction error
// floors scale with environment variability (the paper's Stampede2
// discussion).
func BenchmarkAblationNoise(b *testing.B) {
	study := autotune.CapitalCholesky(autotune.QuickScale())
	for i := 0; i < b.N; i++ {
		for _, sigma := range []float64{0.01, 0.05, 0.15} {
			m := sim.DefaultMachine()
			m.NoiseSigma = sigma
			res, err := autotune.Tuner{
				Study:    study,
				EpsList:  []float64{0.125},
				Machine:  m,
				Seed:     42,
				Policies: []critter.Policy{critter.Online},
			}.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				sw := res.Sweeps[0][0]
				fmt.Printf("# ablation noise sigma=%.2f: mean log2 err %.2f, executed %d skipped %d\n",
					sigma, sw.MeanLogExecErr, sw.Executed, sw.Skipped)
			}
		}
	}
}

// BenchmarkAblationCollectiveModel compares tree versus flat collective
// cost models: the separation of BSP synchronization costs in Figure 3
// depends on the log-p factor.
func BenchmarkAblationCollectiveModel(b *testing.B) {
	study := autotune.CapitalCholesky(autotune.QuickScale())
	for i := 0; i < b.N; i++ {
		for _, tree := range []bool{true, false} {
			m := benchMachine()
			m.CollectiveTree = tree
			reports, err := autotune.FullOnlyCtx(context.Background(), study, m, 42, 0)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("# ablation collectives tree=%v: config0 exec %.4gs, config4 exec %.4gs\n",
					tree, reports[0].Wall, reports[4].Wall)
			}
		}
	}
}

// BenchmarkAblationExtrapolation measures the line-fitting extension
// (Section VIII future work) on a CANDMC-like workload with many one-off
// kernel signatures: executions saved and prediction error added by
// extrapolating kernel models across input sizes.
func BenchmarkAblationExtrapolation(b *testing.B) {
	workload := func(p *critter.Profiler, cc *critter.Comm) {
		for _, n := range []int{8, 12, 16, 24, 32} {
			for i := 0; i < 20; i++ {
				p.Kernel("gemm", n, n, n, 0, 2*float64(n*n*n), func() {})
			}
		}
		for n := 9; n <= 31; n++ {
			p.Kernel("gemm", n, n, n, 0, 2*float64(n*n*n), func() {})
		}
	}
	run := func(extrapolate bool) (critter.Report, int64) {
		w := mpi.NewWorld(1, benchMachine(), 9)
		var rep critter.Report
		var skips int64
		if err := w.Run(func(c *mpi.Comm) {
			p, cc := critter.New(c, critter.Options{
				Policy: critter.Conditional, Eps: 0.2, Extrapolate: extrapolate,
			})
			workload(p, cc)
			rep = p.Report()
			skips = p.ExtrapolatedSkips()
		}); err != nil {
			b.Fatal(err)
		}
		return rep, skips
	}
	for i := 0; i < b.N; i++ {
		base, _ := run(false)
		ext, skips := run(true)
		if i == 0 {
			fmt.Printf("# ablation extrapolation: baseline executed %d, with line-fitting %d (%d extrapolated skips), wall %.3gs -> %.3gs\n",
				base.Executed, ext.Executed, skips, base.Wall, ext.Wall)
		}
	}
}
