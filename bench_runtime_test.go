package critter_test

// The six benchmarks of the simulation substrate (mpi + critter + autotune
// executor) that carry an allocation budget, and TestAllocBudgets, which
// holds them to it in `go test .`. allocs/op and B/op are the only numbers of
// theirs that are checked: they are functions of the code, where ns/op is a
// function of the box (bench/ owns every timing, with repetitions and a
// spread). Both are needed: an allocation whose size grows with the problem
// — a per-rank index over every tile of the global matrix, made once per
// matrix — moves bytes and leaves the count where it was.
//
//   - BenchmarkPropagation: one iteration is a realistic profiler step under
//     online propagation — a handful of computation kernels followed by a
//     profiled collective and a profiled ring Sendrecv — against a populated
//     path frequency table, so the piggyback path (pathset snapshot, merge,
//     adopt) dominates.
//   - BenchmarkFullSweep: one iteration is one complete (policy, eps) sweep
//     of the SLATE Cholesky study at QuickScale through the Tuner, on a
//     Study value of its own, so it runs every reference;
//     BenchmarkFullSweepApriori is the same sweep under the a-priori policy.
//   - BenchmarkMPIAllreduce, BenchmarkProfilerCollective: a raw and a
//     profiled 8-rank collective in steady state.
//   - BenchmarkMPIBcastMsg: the untimed 8-rank hand-off of rank 0's payload
//     (mpi.BcastMsg) in steady state.
//   - BenchmarkProfileRecord: the service's durable profile record, a warm
//     critter.ProfileEncoder appending a 1 000-kernel profile into a reused
//     buffer.
//
// To see the numbers behind a budget:
//
//	go test -run '^$' -bench '^Benchmark(Propagation|FullSweep|FullSweepApriori|MPIAllreduce|MPIBcastMsg|ProfilerCollective|ProfileRecord)$' -benchmem .

import (
	"context"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/mpi"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAllocBudgets fails when a budgeted benchmark allocates more objects or
// more bytes per operation than its ceiling. A change that lowers a number
// lowers the ceiling with it; one that raises a number says what the
// allocation buys.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs seven benchmarks for a second each; counts under -race are the detector's")
	}
	for _, bud := range []struct {
		name          string
		bench         func(*testing.B)
		allocs, bytes int64
	}{
		// 0 allocs/op and 0 B/op at -cpu 1, 2 and 4, idle and loaded: its
		// Sendrecv payloads come from the world's own BufPool and go back
		// to it on landing. Until every world owned a pool they were eight
		// fresh 128-byte buffers, 8 and 1 024 B/op.
		{"BenchmarkPropagation", BenchmarkPropagation, 0, 0},
		// 1 256 allocs/op and 313 808-314 044 B/op over 27 runs at -cpu 1,
		// 2 and 4, 5 with testing.Benchmark's own count and 4 with 20
		// iterations each. Four allocations and 4 209 B of headroom stay:
		// each byte ceiling fell by the 2 240 B a record's skip-decision
		// cache cost (1 256 and 316 048-316 108 B with it), keeping the
		// room it had over that reading. At an earlier reading, 1 261 and
		// 312 928-313 135 B, 7 358 B of headroom stayed, the widest spread
		// of bytes the two sweep benchmarks read while their ranks were
		// goroutines. Before path counts were 32-bit, a
		// record 72 bytes and an archived model 32, it read 1 261 and
		// 358 160-358 387 B; before a rank's records were sized by what it
		// touches, a repeated split got its first round's groups back and
		// the memo filed retired arenas by value, it read 1 349
		// and 363 808-364 070 B; before a rank kept its grid headers, its
		// Cholesky panel ring and its broadcast marks for the whole world
		// (mpi.Local), it read 3 584-3 585 and 543 585-544 226 B; before a
		// grid's Release handed its fibers to the next configuration's
		// splits and a world its mailbox arrays to the next world, 5 976
		// and 668 576-668 649 B. An allocation per configuration (20 a
		// sweep), per adopt or per split handle is well past either. Each
		// iteration builds its Study with the timer stopped; built inside
		// the timed loop the Study adds about 17 allocations.
		{"BenchmarkFullSweep", BenchmarkFullSweep, 1260, 318253},
		// 1 261 allocs/op and 316 504-316 710 B/op over 27 runs, the same
		// way (1 261 and 318 744-318 747 B before the decision cache went,
		// 1 266 and 360 856-361 129 B before the compact counts,
		// records and archived models, 1 394 and 369 064-369 086 B before
		// the records, the split groups and the arenas, 4 775 and
		// 641 320-641 712 B before the bookkeeping was kept per rank,
		// 8 447 and 832 872-832 986 B before the grids and mailboxes were
		// reused). Rekeying the offline pass's global path
		// table into a Key map per configuration and rank, as
		// GlobalPathFreqs does, cost about 650 allocations and 295 000 B
		// more.
		{"BenchmarkFullSweepApriori", BenchmarkFullSweepApriori, 1265, 320746},
		// A copy or a per-round object coming back into the collective path
		// shows here first. All three time steady-state rounds only
		// (steadyState): charged to a small b.N under load, the world's
		// start-up once read as 1 B/op. A hand-off round opened fresh, not
		// from the fabric's freelist, reads 3 allocs and 208 B/op.
		{"BenchmarkMPIAllreduce", BenchmarkMPIAllreduce, 0, 0},
		{"BenchmarkMPIBcastMsg", BenchmarkMPIBcastMsg, 0, 0},
		{"BenchmarkProfilerCollective", BenchmarkProfilerCollective, 0, 0},
		// 0 allocs/op and 0 B/op at -cpu 1, 2 and 4: the encoder's scratch
		// and the record's buffer are reused, so a warm append allocates
		// nothing at any kernel count. The bytes ceiling leaves room for one
		// stray runtime allocation over the run (22 B/op was read once with
		// the CPU profiler on); a buffer or a scratch slice regrown per call
		// is tens of kilobytes. Through json.Marshal the same record was
		// 12 024 allocs and 459 511 B/op.
		{"BenchmarkProfileRecord", BenchmarkProfileRecord, 0, 1024},
	} {
		res := testing.Benchmark(bud.bench)
		if res.N == 0 {
			t.Errorf("%s failed", bud.name)
			continue
		}
		if got := res.AllocsPerOp(); got > bud.allocs {
			t.Errorf("%s: %d allocs/op, budget %d", bud.name, got, bud.allocs)
		}
		if got := res.AllocedBytesPerOp(); got > bud.bytes {
			t.Errorf("%s: %d B/op, budget %d", bud.name, got, bud.bytes)
		}
	}
}

// propagationKernels populates the rank's path frequency table with distinct
// kernel signatures so every propagation point moves a realistically sized
// table (the paper's studies profile tens to hundreds of signatures).
const propagationKernels = 48

// BenchmarkPropagation measures the profiler's piggyback propagation path:
// per iteration, four kernel interceptions, one profiled allreduce (internal
// allreduce + pathset merge), and one profiled symmetric Sendrecv exchange
// on a ring (combined internal exchange), at 8 ranks under online
// propagation with skipping disabled so every step propagates counts.
func BenchmarkPropagation(b *testing.B) {
	w := mpi.NewWorld(8, benchMachine(), 7)
	b.ReportAllocs()
	err := w.Run(func(c *mpi.Comm) {
		p, cc := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0})
		for k := 0; k < propagationKernels; k++ {
			p.Kernel("seed", k, k, k, 0, 100, func() {})
		}
		buf := make([]float64, 32)
		ring := make([]float64, 16)
		// Sendrecv partner (butterfly stage 0): ranks 2k <-> 2k+1.
		pair := c.Rank() ^ 1
		steadyState(b, c, func() {
			for k := 0; k < 4; k++ {
				p.Kernel("step", k, 8, 8, 0, 1e3, func() {})
			}
			cc.Allreduce(buf, buf, mpi.OpMax)
			cc.Sendrecv(pair, 5, ring, ring)
		})
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFullSweep measures one complete (policy, eps) sweep — full
// reference execution plus selective execution per configuration — of the
// SLATE Cholesky study at QuickScale, through the Tuner on a single worker.
func BenchmarkFullSweep(b *testing.B) { benchSweep(b, critter.Online) }

// BenchmarkFullSweepApriori is BenchmarkFullSweep under the a-priori policy,
// whose every configuration adds an offline pass and installs its global
// path counts.
func BenchmarkFullSweepApriori(b *testing.B) { benchSweep(b, critter.APriori) }

func benchSweep(b *testing.B, pol critter.Policy) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh Study per iteration: one built before the loop would share
		// its reference reports with every later iteration, which then ran
		// no full executions. Its construction is not part of the sweep.
		b.StopTimer()
		study := autotune.SlateCholesky(autotune.QuickScale())
		b.StartTimer()
		res, err := autotune.Tuner{
			Study:    study,
			EpsList:  []float64{0.125},
			Machine:  benchMachine(),
			Seed:     42,
			Policies: []critter.Policy{pol},
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

// steadyState runs op b.N times on every rank of c's world, timing and
// counting only those calls. Each rank first runs op warmRounds times, and
// rank 0 then restarts b's timer and allocation counters between two
// barriers: neither the world's start-up, nor any rank's set-up, nor state
// a rank grows lazily (the collective scratch of a round's last arriver)
// is charged to the operations, which a small b.N would otherwise pay for.
func steadyState(b *testing.B, c *mpi.Comm, op func()) {
	const warmRounds = 64
	for i := 0; i < warmRounds; i++ {
		op()
	}
	c.Barrier()
	if c.Rank() == 0 {
		b.ResetTimer()
	}
	c.Barrier()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkMPIAllreduce measures the simulated runtime's collective cost
// (host time, not virtual time) at 8 ranks.
func BenchmarkMPIAllreduce(b *testing.B) {
	w := mpi.NewWorld(8, benchMachine(), 1)
	err := w.Run(func(c *mpi.Comm) {
		in := make([]float64, 256)
		out := make([]float64, 256)
		steadyState(b, c, func() { c.Allreduce(in, out, mpi.OpSum) })
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMPIBcastMsg measures the untimed rank-0 hand-off round
// (mpi.BcastMsg: the profiler's interner hand-off, a configuration's shared
// table, the Tuner's known reference report) at 8 ranks.
func BenchmarkMPIBcastMsg(b *testing.B) {
	w := mpi.NewWorld(8, benchMachine(), 1)
	err := w.Run(func(c *mpi.Comm) {
		mine := new(int)
		steadyState(b, c, func() { mpi.BcastMsg(c, mine) })
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfilerCollective measures the interception overhead of a
// profiled broadcast across 8 ranks (includes the internal allreduce).
func BenchmarkProfilerCollective(b *testing.B) {
	w := mpi.NewWorld(8, benchMachine(), 1)
	err := w.Run(func(c *mpi.Comm) {
		_, cc := critter.New(c, critter.Options{Policy: critter.Online, Eps: 0})
		buf := make([]float64, 64)
		steadyState(b, c, func() { cc.Bcast(0, buf) })
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProfileRecord measures the service's durable profile record: a
// warm critter.ProfileEncoder appending a 1 000-kernel profile (its path
// frequencies and ten routine families of eight points each) into a buffer
// reused from call to call, as Scheduler.mergeProfile does after every job.
func BenchmarkProfileRecord(b *testing.B) {
	const kernels = 1000
	p := &critter.Profile{
		SchemaVersion: critter.ProfileSchemaVersion,
		Estimator:     "ci-mean",
		Kernels:       make(map[critter.Key]critter.KernelModel, kernels),
		Families:      make(map[string]critter.Family),
		PathFreqs:     make(map[critter.Key]int64, kernels),
	}
	routines := []string{"gemm", "syrk", "trsm", "potrf", "geqrt", "tpqrt", "bcast", "allreduce", "reduce", "sendrecv"}
	for i := range kernels {
		name := routines[i%len(routines)]
		k := critter.CompKey(name, 8+i, 8*i, i%7, i%2)
		if i%2 == 1 {
			k = critter.CommKey(name, 64*i, 8, 1+i%4)
		}
		p.Kernels[k] = critter.KernelModel{Count: int64(3 + i%5), Mean: 2.0917e-6 * float64(1+i), M2: 1.3e-13 * float64(i), Pooled: i%3 == 0}
		p.PathFreqs[k] = int64(1 + i%9)
	}
	for _, name := range routines {
		pts := make([]critter.FamilyPoint, 8)
		for j := range pts {
			pts[j] = critter.FamilyPoint{Flops: 1024 * float64(1+j), Mean: 3e-7 * float64(1+j)}
		}
		p.Families[name] = critter.Family{Points: pts}
	}
	var enc critter.ProfileEncoder
	buf, err := enc.Append(nil, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if buf, err = enc.Append(buf[:0], p); err != nil {
			b.Fatal(err)
		}
	}
}
