package critter_test

// The Runtime benchmark suite: the perf trajectory of the simulation
// substrate (mpi + critter + autotune executor) is tracked by named
// benchmarks whose numbers are committed to BENCH_runtime.json and gated in
// CI (cmd/benchdiff):
//
//   - BenchmarkPropagation: the propagation microbench. One iteration is a
//     realistic profiler step under online propagation — a handful of
//     computation kernels followed by a profiled collective and a profiled
//     ring Sendrecv — against a populated path frequency table, so the
//     piggyback path (pathset snapshot, merge, adopt) dominates. The gated
//     metric is allocs/op.
//   - BenchmarkFullSweep: the full-sweep macrobench. One iteration is one
//     complete (policy, eps) sweep of the SLATE Cholesky study at QuickScale
//     through the Tuner. The tracked metric is ns/op (wall time).
//
// Run the suite with:
//
//	go test -run '^$' -bench 'Propagation|FullSweep|MPIAllreduce|ProfilerCollective' -benchmem -count=5 .
//
// (BenchmarkMPIAllreduce and BenchmarkProfilerCollective live in
// bench_test.go; their allocs/op — zero — are gated too.)
//
// and compare against the committed baseline with:
//
//	go run ./cmd/benchdiff -baseline BENCH_runtime.json bench.txt
//
// After an intentional perf change, rewrite the baseline from a fresh
// measurement with `go run ./cmd/benchdiff -update bench.txt`.

import (
	"context"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/mpi"
)

// propagationKernels populates the rank's path frequency table with distinct
// kernel signatures so every propagation point moves a realistically sized
// table (the paper's studies profile tens to hundreds of signatures).
const propagationKernels = 48

// BenchmarkPropagation measures the profiler's piggyback propagation path:
// per iteration, four kernel interceptions, one profiled allreduce (internal
// allreduce + pathset merge), and one profiled symmetric Sendrecv exchange
// on a ring (combined internal exchange), at 8 ranks under online
// propagation with skipping disabled so every step propagates counts.
// allocs/op is the CI-gated metric (BENCH_runtime.json).
func BenchmarkPropagation(b *testing.B) {
	w := mpi.NewWorld(8, benchMachine(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	err := w.Run(func(c *mpi.Comm) {
		p, cc := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0})
		for k := 0; k < propagationKernels; k++ {
			p.Kernel("seed", k, k, k, 0, 100, func() {})
		}
		buf := make([]float64, 32)
		ring := make([]float64, 16)
		// Pairwise symmetric exchange partner (butterfly stage 0): ranks
		// 2k <-> 2k+1, same tag both ways, so the combined Sendrecv
		// protocol engages.
		pair := c.Rank() ^ 1
		for i := 0; i < b.N; i++ {
			for k := 0; k < 4; k++ {
				p.Kernel("step", k, 8, 8, 0, 1e3, func() {})
			}
			cc.Allreduce(buf, buf, mpi.OpMax)
			cc.Sendrecv(pair, 5, ring, pair, 5, ring)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFullSweep measures one complete (policy, eps) sweep — full
// reference execution plus selective execution per configuration — of the
// SLATE Cholesky study at QuickScale, through the Tuner on a single worker.
// ns/op is the tracked wall-time metric (BENCH_runtime.json).
func BenchmarkFullSweep(b *testing.B) {
	study := autotune.SlateCholesky(autotune.QuickScale())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := autotune.Tuner{
			Study:    study,
			EpsList:  []float64{0.125},
			Machine:  benchMachine(),
			Seed:     42,
			Policies: []critter.Policy{critter.Online},
			Workers:  1,
		}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Sweeps) != 1 || len(res.Sweeps[0]) != 1 {
			b.Fatal("unexpected result shape")
		}
	}
}
