package critter_test

// Benchmark harness: one benchmark per figure (panel group) of the paper's
// evaluation, plus the ablation benches called out in DESIGN.md and
// microbenchmarks of the substrate. Each figure benchmark runs the full
// experiment behind the figure at QuickScale and prints the regenerated
// series on its first iteration, so `go test -bench=.` output contains the
// same rows the paper plots; cmd/figures regenerates them at DefaultScale.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"critter/internal/autotune"
	"critter/internal/blas"
	"critter/internal/critter"
	"critter/internal/figures"
	"critter/internal/lapack"
	"critter/internal/mpi"
	"critter/internal/sim"
	"critter/internal/stats"
)

func benchMachine() sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.05
	return m
}

// benchEps is a reduced tolerance sweep (2^0 .. 2^-4) keeping benches fast.
func benchEps() []float64 { return autotune.DefaultEpsList()[:5] }

// --- Figure 3: BSP cost trade-offs and execution-time breakdowns ---

func benchFig3(b *testing.B, study autotune.Study) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f3, err := figures.RunFig3(study, benchMachine(), 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			f3.Print(os.Stdout)
		}
	}
}

// BenchmarkFig3Capital regenerates Figure 3a/3e/3i (CAPITAL Cholesky).
func BenchmarkFig3Capital(b *testing.B) {
	benchFig3(b, autotune.CapitalCholesky(autotune.QuickScale()))
}

// BenchmarkFig3SlateChol regenerates Figure 3b/3f/3j (SLATE Cholesky).
func BenchmarkFig3SlateChol(b *testing.B) {
	benchFig3(b, autotune.SlateCholesky(autotune.QuickScale()))
}

// BenchmarkFig3Candmc regenerates Figure 3c/3g/3k (CANDMC QR).
func BenchmarkFig3Candmc(b *testing.B) {
	benchFig3(b, autotune.CandmcQR(autotune.QuickScale()))
}

// BenchmarkFig3SlateQR regenerates Figure 3d/3h/3l (SLATE QR).
func BenchmarkFig3SlateQR(b *testing.B) {
	benchFig3(b, autotune.SlateQR(autotune.QuickScale()))
}

// --- Figures 4 and 5: tuning time and prediction error vs tolerance ---

func benchTuning(b *testing.B, study autotune.Study) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tn, err := figures.RunTuning(study, benchMachine(), 42, benchEps())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tn.PrintAll(os.Stdout)
		}
	}
}

// BenchmarkFig4CapitalTuning regenerates Figure 4a/4e/4g (CAPITAL, all five
// policies including eager propagation).
func BenchmarkFig4CapitalTuning(b *testing.B) {
	benchTuning(b, autotune.CapitalCholesky(autotune.QuickScale()))
}

// BenchmarkFig4SlateCholTuning regenerates Figure 4b/4c/4d/4f/4h.
func BenchmarkFig4SlateCholTuning(b *testing.B) {
	benchTuning(b, autotune.SlateCholesky(autotune.QuickScale()))
}

// BenchmarkFig5CandmcTuning regenerates Figure 5a/5c/5e/5g.
func BenchmarkFig5CandmcTuning(b *testing.B) {
	benchTuning(b, autotune.CandmcQR(autotune.QuickScale()))
}

// BenchmarkFig5SlateQRTuning regenerates Figure 5b/5d/5f/5h.
func BenchmarkFig5SlateQRTuning(b *testing.B) {
	benchTuning(b, autotune.SlateQR(autotune.QuickScale()))
}

// --- Concurrent sweep executor ---

// BenchmarkParallelSweep measures the concurrent sweep executor on the full
// four-policy x five-tolerance grid of a study: workers=1 is the sequential
// path, workers=GOMAXPROCS the default pool. The results are bit-identical
// across worker counts (each sweep owns an identically-seeded world), so
// the wall-clock ratio is pure multi-core speedup.
func BenchmarkParallelSweep(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 1 && n != counts[1] {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			study := autotune.SlateCholesky(autotune.QuickScale())
			for i := 0; i < b.N; i++ {
				_, err := autotune.Tuner{
					Study:   study,
					EpsList: benchEps(),
					Machine: benchMachine(),
					Seed:    42,
					Workers: workers,
				}.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSuite measures RunTuners across all four case studies
// sharing one worker pool at a single tolerance.
func BenchmarkParallelSuite(b *testing.B) {
	mk := func(st autotune.Study) autotune.Tuner {
		return autotune.Tuner{
			Study:   st,
			EpsList: []float64{0.125},
			Machine: benchMachine(),
			Seed:    42,
		}
	}
	for i := 0; i < b.N; i++ {
		_, errs := autotune.RunTuners(context.Background(), []autotune.Tuner{
			mk(autotune.CapitalCholesky(autotune.QuickScale())),
			mk(autotune.SlateCholesky(autotune.QuickScale())),
			mk(autotune.CandmcQR(autotune.QuickScale())),
			mk(autotune.SlateQR(autotune.QuickScale())),
		}, 0, nil)
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md section 4) ---

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
			reports, err := autotune.FullOnly(study, m, 42)
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

// --- Substrate microbenchmarks ---

// BenchmarkMPIAllreduce measures the simulated runtime's collective cost
// (host time, not virtual time) at 8 ranks.
func BenchmarkMPIAllreduce(b *testing.B) {
	m := benchMachine()
	w := mpi.NewWorld(8, m, 1)
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) {
		in := make([]float64, 256)
		out := make([]float64, 256)
		for i := 0; i < b.N; i++ {
			c.Allreduce(in, out, mpi.OpSum)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPIPingPong measures point-to-point matching cost.
func BenchmarkMPIPingPong(b *testing.B) {
	w := mpi.NewWorld(2, benchMachine(), 1)
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) {
		buf := make([]float64, 128)
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfilerKernel measures the per-invocation interception overhead
// of a computation kernel (decision + model update, no skip).
func BenchmarkProfilerKernel(b *testing.B) {
	w := mpi.NewWorld(1, benchMachine(), 1)
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) {
		p, _ := critter.New(c, critter.Options{Policy: critter.Conditional, Eps: 0})
		for i := 0; i < b.N; i++ {
			p.Kernel("bench", 8, 8, 8, 0, 1e3, func() {})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfilerCollective measures the interception overhead of a
// profiled broadcast across 8 ranks (includes the internal allreduce).
func BenchmarkProfilerCollective(b *testing.B) {
	w := mpi.NewWorld(8, benchMachine(), 1)
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) {
		_, cc := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0})
		buf := make([]float64, 64)
		for i := 0; i < b.N; i++ {
			cc.Bcast(0, buf)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWelford measures the statistics accumulator.
func BenchmarkWelford(b *testing.B) {
	var w stats.Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 17))
	}
	if w.Count() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

// --- The numerics core: level-3 BLAS and the LAPACK kernels built on it ---

// numericsSizes are the tile orders the level-3 microbenches run at: the
// quick-scale tile and the default-scale one.
var numericsSizes = []int{8, 64}

// benchMatrix fills a deterministic n x n matrix; with spd set it is
// symmetric and diagonally dominant, so its triangles are well conditioned.
func benchMatrix(n int, seed uint64, spd bool) []float64 {
	rng := sim.NewRNG(seed)
	a := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	if spd {
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				a[i+j*n] = a[j+i*n]
			}
			a[i+i*n] += float64(n)
		}
	}
	return a
}

// benchNumerics runs call once per iteration at each size in numericsSizes
// and reports its rate; call gets fresh operands from setup outside the
// timed loop, and must itself restore whatever it overwrites.
func benchNumerics(b *testing.B, flops func(n int) float64, setup func(n int) (call func())) {
	for _, n := range numericsSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			call := setup(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.ReportMetric(flops(n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "gflops")
		})
	}
}

func BenchmarkBlasDgemm(b *testing.B) {
	benchNumerics(b, func(n int) float64 { return lapack.GemmFlops(n, n, n) }, func(n int) func() {
		x, y, c := benchMatrix(n, 1, false), benchMatrix(n, 2, false), make([]float64, n*n)
		return func() { blas.Dgemm(false, false, n, n, n, 1, x, n, y, n, 0, c, n) }
	})
}

func BenchmarkBlasDsyrk(b *testing.B) {
	benchNumerics(b, func(n int) float64 { return lapack.SyrkFlops(n, n) }, func(n int) func() {
		x, c := benchMatrix(n, 1, false), make([]float64, n*n)
		return func() { blas.Dsyrk(blas.Lower, false, n, n, 1, x, n, 0, c, n) }
	})
}

func BenchmarkBlasDtrsm(b *testing.B) {
	benchNumerics(b, func(n int) float64 { return lapack.TrsmFlops(true, n, n) }, func(n int) func() {
		tri, y, c := benchMatrix(n, 1, true), benchMatrix(n, 2, false), make([]float64, n*n)
		return func() {
			copy(c, y)
			blas.Dtrsm(blas.Left, blas.Lower, false, blas.NonUnit, n, n, 1, tri, n, c, n)
		}
	})
}

func BenchmarkBlasDtrmm(b *testing.B) {
	benchNumerics(b, func(n int) float64 { return lapack.TrmmFlops(false, n, n) }, func(n int) func() {
		tri, y, c := benchMatrix(n, 1, true), benchMatrix(n, 2, false), make([]float64, n*n)
		return func() {
			copy(c, y)
			blas.Dtrmm(blas.Right, blas.Lower, true, blas.NonUnit, n, n, 1, tri, n, c, n)
		}
	})
}

func BenchmarkLapackPotrf(b *testing.B) {
	benchNumerics(b, lapack.PotrfFlops, func(n int) func() {
		spd, c := benchMatrix(n, 1, true), make([]float64, n*n)
		return func() {
			copy(c, spd)
			if err := lapack.Dpotrf(n, c, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// numericsIB is the inner block size of the blocked QR microbenches.
const numericsIB = 8

func BenchmarkLapackGeqrt(b *testing.B) {
	benchNumerics(b, func(n int) float64 { return lapack.GeqrfFlops(n, n) }, func(n int) func() {
		x, c := benchMatrix(n, 1, false), make([]float64, n*n)
		t, tau := make([]float64, numericsIB*n), make([]float64, n)
		return func() {
			copy(c, x)
			lapack.Dgeqrt(n, n, numericsIB, c, n, t, numericsIB, tau)
		}
	})
}

func BenchmarkLapackTpqrt(b *testing.B) {
	benchNumerics(b, func(n int) float64 { return lapack.TpqrtFlops(n, n) }, func(n int) func() {
		top, x := benchMatrix(n, 1, true), benchMatrix(n, 2, false)
		for j := 0; j < n; j++ { // keep the upper triangle only
			clear(top[j+1+j*n : (j+1)*n])
		}
		r, c, t := make([]float64, n*n), make([]float64, n*n), make([]float64, numericsIB*n)
		return func() {
			copy(r, top)
			copy(c, x)
			lapack.Dtpqrt(n, n, numericsIB, r, n, c, n, t, numericsIB)
		}
	})
}
