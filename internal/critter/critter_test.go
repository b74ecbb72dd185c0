package critter

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"critter/internal/mpi"
	"critter/internal/sim"
)

// TestPolicyJSONRoundTrip checks that policies serialize by name and decode
// back, so critter-tune -json output can be unmarshaled into library types.
func TestPolicyJSONRoundTrip(t *testing.T) {
	for _, p := range Policies {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + p.String() + `"`; string(data) != want {
			t.Errorf("policy %s marshals to %s, want %s", p, data, want)
		}
		var back Policy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Errorf("round trip: %s -> %s", p, back)
		}
	}
	var bad Policy
	if err := json.Unmarshal([]byte(`"bogus"`), &bad); err == nil {
		t.Error("unknown policy name should fail to decode")
	}
	if err := json.Unmarshal([]byte(`3`), &bad); err == nil {
		t.Error("numeric policy should fail to decode (names only)")
	}
}

func testMachine(noise float64) sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseSigma = noise
	return m
}

// runProfiled spins up a world of p ranks, builds a profiler per rank, and
// runs body. Reports from rank 0 are returned.
func runProfiled(t *testing.T, p int, noise float64, opts Options, body func(prof *Profiler, cc *Comm)) Report {
	t.Helper()
	w := mpi.NewWorld(p, testMachine(noise), 7)
	var rep Report
	var mu sync.Mutex
	if err := w.Run(func(c *mpi.Comm) {
		prof, cc := New(c, opts)
		body(prof, cc)
		r := prof.Report()
		if c.Rank() == 0 {
			mu.Lock()
			rep = r
			mu.Unlock()
		}
	}); err != nil {
		t.Fatalf("world: %v", err)
	}
	return rep
}

func TestFullExecutionNeverSkips(t *testing.T) {
	rep := runProfiled(t, 4, 0.05, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 64)
		for i := 0; i < 20; i++ {
			cc.Bcast(0, buf)
			p.Kernel("work", 8, 8, 8, 0, 1e5, func() {})
		}
	})
	if rep.Skipped != 0 {
		t.Errorf("eps=0 skipped %d kernels", rep.Skipped)
	}
	if rep.Executed == 0 {
		t.Error("nothing executed")
	}
	// With everything executed, predicted time equals wall time.
	if math.Abs(rep.Predicted-rep.Wall) > 1e-9*rep.Wall {
		t.Errorf("full execution: predicted %g != wall %g", rep.Predicted, rep.Wall)
	}
}

func TestSelectiveComputeSkipsAndPredicts(t *testing.T) {
	var execs, skips int64
	rep := runProfiled(t, 1, 0.02, Options{Policy: Conditional, Eps: 0.1}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 200; i++ {
			p.Kernel("gemm", 32, 32, 32, 0, 2*32*32*32, func() { execs++ })
		}
		skips = p.skipped
	})
	if skips == 0 {
		t.Fatal("low-noise repeated kernel was never skipped at eps=0.1")
	}
	if execs < 2 {
		t.Fatal("kernel must execute at least twice to build a CI")
	}
	if rep.Predicted <= 0 {
		t.Error("predicted time should be positive")
	}
	// Skipped executions should not consume wall time: wall < predicted.
	if rep.Wall >= rep.Predicted {
		t.Errorf("wall %g should be below predicted %g when kernels are skipped", rep.Wall, rep.Predicted)
	}
}

// TestMemoizedCountsDecisionCacheWithoutMemo pins what Report.Memoized
// measures: replays of the profiler's own per-kernel decision cache
// (predCache), which owes nothing to the buffer pool's kernel memo (memo.go):
// the world runs on a fresh pool, whose memo holds no table and no arena. A
// converged kernel re-encountered under a conditional (constant) frequency
// credit is answered from the cache on every skip after the first.
func TestMemoizedCountsDecisionCacheWithoutMemo(t *testing.T) {
	rep := runProfiled(t, 1, 0.02, Options{Policy: Conditional, Eps: 0.1}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 200; i++ {
			p.Kernel("gemm", 32, 32, 32, 0, 2*32*32*32, func() {})
		}
	})
	if rep.Skipped < 2 {
		t.Fatalf("kernel loop skipped %d times, want a converged loop", rep.Skipped)
	}
	if rep.Memoized == 0 || rep.Memoized > rep.Skipped {
		t.Errorf("Memoized = %d on a fresh pool with %d skips, want 0 < Memoized <= Skipped",
			rep.Memoized, rep.Skipped)
	}
}

func TestPredictionAccuracyImprovesWithTighterEps(t *testing.T) {
	// Run the same workload fully, then selectively at two tolerances;
	// the tighter tolerance must not be less accurate (statistically this
	// holds strongly at these sample sizes).
	workload := func(p *Profiler, cc *Comm) {
		for i := 0; i < 300; i++ {
			p.Kernel("k1", 16, 16, 16, 0, 5e4, func() {})
			p.Kernel("k2", 8, 8, 8, 0, 1e4, func() {})
		}
	}
	full := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0}, workload)
	loose := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.5}, workload)
	tight := runProfiled(t, 1, 0.05, Options{Policy: Conditional, Eps: 0.01}, workload)
	errLoose := math.Abs(loose.Predicted-full.Predicted) / full.Predicted
	errTight := math.Abs(tight.Predicted-full.Predicted) / full.Predicted
	if errTight > 0.05 {
		t.Errorf("tight tolerance error %g too large", errTight)
	}
	if errLoose > 0.5 {
		t.Errorf("loose tolerance error %g implausibly large", errLoose)
	}
}

func TestMinimumOneExecutionPerConfig(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Conditional, Eps: 0.9}, func(p *Profiler, cc *Comm) {
		for i := 0; i < 50; i++ {
			p.Kernel("k", 4, 4, 4, 0, 1e3, func() {})
		}
		firstConfigExecs := p.executed
		if firstConfigExecs < 1 {
			t.Fatal("no executions in first config")
		}
		p.StartConfig(false) // keep stats
		for i := 0; i < 50; i++ {
			p.Kernel("k", 4, 4, 4, 0, 1e3, func() {})
		}
		if p.executed < 1 {
			t.Error("non-eager policy must execute each kernel at least once per configuration")
		}
		if p.executed > 2 {
			t.Errorf("zero-noise predictable kernel executed %d times in second config, want 1", p.executed)
		}
	})
}

func TestOnlineFreqCreditSkipsEarlier(t *testing.T) {
	// A kernel appearing many times along the path gains sqrt(freq) CI
	// shrink under Online, so it gets skipped earlier than Conditional.
	countExecs := func(policy Policy) int64 {
		var n int64
		runProfiled(t, 1, 0.3, Options{Policy: policy, Eps: 0.12}, func(p *Profiler, cc *Comm) {
			for i := 0; i < 400; i++ {
				p.Kernel("hot", 8, 8, 8, 0, 1e4, func() {})
			}
			n = p.executed
		})
		return n
	}
	cond := countExecs(Conditional)
	online := countExecs(Online)
	if online >= cond {
		t.Errorf("online (%d execs) should skip earlier than conditional (%d)", online, cond)
	}
}

func TestCollectiveAgreementNoHang(t *testing.T) {
	// With noise, ranks' models diverge; the internal allreduce must keep
	// bcast participation consistent (a hang here fails the test by
	// timeout; data correctness checked when executed).
	runProfiled(t, 4, 0.2, Options{Policy: Conditional, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 32)
		for i := 0; i < 100; i++ {
			if cc.Rank() == 0 {
				for j := range buf {
					buf[j] = float64(i)
				}
			}
			cc.Bcast(0, buf)
		}
	})
}

func TestSkippedCollectiveSavesWallTime(t *testing.T) {
	full := runProfiled(t, 4, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 4096)
		for i := 0; i < 50; i++ {
			cc.Bcast(0, buf)
		}
	})
	selective := runProfiled(t, 4, 0.0, Options{Policy: Conditional, Eps: 0.5}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 4096)
		for i := 0; i < 50; i++ {
			cc.Bcast(0, buf)
		}
	})
	if selective.Wall >= full.Wall {
		t.Errorf("selective wall %g not below full wall %g", selective.Wall, full.Wall)
	}
	if selective.Skipped == 0 {
		t.Error("no collectives were skipped")
	}
	// Prediction should still be close (zero noise: exact after 2 samples).
	if e := math.Abs(selective.Predicted-full.Predicted) / full.Predicted; e > 0.02 {
		t.Errorf("skip-heavy prediction error %g", e)
	}
}

// TestIsendCommittedProtocol pins the one receiver rule: a Recv follows the
// decision its Isend committed. Rank 0 Isends one signature until its model
// skips sends; rank 1's receive i is skipped if and only if rank 0's send i
// was, and the pair's executed and skipped counts match rank for rank.
func TestIsendCommittedProtocol(t *testing.T) {
	const sends, words, eps = 60, 64, 0.25
	var executed, skipped [2]int64
	var skips [2][sends]bool // skips[r][i]: rank r skipped its leg of message i
	runProfiled(t, 2, 0.1, Options{Policy: Conditional, Eps: eps}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, words)
		for i := 0; i < sends; i++ {
			before := p.skipped
			if cc.Rank() == 0 {
				cc.Isend(1, i, buf)
				skips[0][i] = p.skipped > before
				p.Waitall()
				continue
			}
			cc.Recv(0, i, buf)
			skips[1][i] = p.skipped > before
		}
		executed[cc.Rank()], skipped[cc.Rank()] = p.executed, p.skipped
	})
	for i := range sends {
		if skips[0][i] != skips[1][i] {
			t.Errorf("message %d: send skipped %v, receive skipped %v", i, skips[0][i], skips[1][i])
		}
	}
	if executed[0] != executed[1] || skipped[0] != skipped[1] {
		t.Errorf("sender executed %d and skipped %d, receiver executed %d and skipped %d",
			executed[0], skipped[0], executed[1], skipped[1])
	}
	if skipped[0] == 0 {
		t.Error("no send was skipped")
	}
}

// TestIsendVoteDataPairing: an Isend's vote travels on the internal lane and
// its data, when it executes, on the user communicator, so a receive pairs
// the two only because a data message exists exactly when its vote says
// execute. On one tag, rank 0 Isends one signature until it is skipped, then
// a fresh signature of another length; rank 1 receives each. A data message
// posted for the skipped send would land in the shorter receive and panic on
// its length; a vote paired with the wrong data would show in the payloads.
func TestIsendVoteDataPairing(t *testing.T) {
	const tag, maxSends = 5, 200
	runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0.25}, func(p *Profiler, cc *Comm) {
		long := make([]float64, 8)
		sends := 0
		for ; p.skipped == 0; sends++ {
			if sends == maxSends {
				t.Errorf("rank %d: %d sends of one signature, none skipped", cc.Rank(), sends)
				return
			}
			if cc.Rank() == 0 {
				for j := range long {
					long[j] = float64(sends*len(long) + j)
				}
				cc.Isend(1, tag, long)
				p.Waitall()
				continue
			}
			cc.Recv(0, tag, long)
			// A skipped receive lands nothing.
			if want := float64(sends * len(long)); p.skipped == 0 && long[0] != want {
				t.Errorf("send %d: payload starts %g, want %g", sends, long[0], want)
			}
		}
		if cc.Rank() == 0 {
			cc.Isend(1, tag, []float64{-1, -2, -3})
			p.Waitall()
			return
		}
		short := make([]float64, 3)
		cc.Recv(0, tag, short)
		if short[0] != -1 || short[1] != -2 || short[2] != -3 {
			t.Errorf("fresh signature after %d sends landed %v, want [-1 -2 -3]", sends, short)
		}
	})
}

// TestRecvZeroLengthBuffer posts a zero-word receive with a nil and with an
// empty buffer against an Isend. Both must run the receive side of the
// protocol whatever the buffer, or the sender's Waitall waits for a reply
// that never comes.
func TestRecvZeroLengthBuffer(t *testing.T) {
	for _, tc := range []struct {
		name string
		buf  []float64
	}{{"nil", nil}, {"empty", []float64{}}} {
		t.Run(tc.name, func(t *testing.T) {
			runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
				if cc.Rank() == 0 {
					cc.Isend(1, 3, nil)
					p.Waitall()
				} else {
					cc.Recv(0, 3, tc.buf)
				}
			})
		})
	}
}

func TestIsendRecvSelectiveSkipsConsistently(t *testing.T) {
	runProfiled(t, 2, 0.1, Options{Policy: Conditional, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 32)
		for i := 0; i < 50; i++ {
			if cc.Rank() == 0 {
				cc.Isend(1, i, buf)
				p.Waitall()
			} else {
				cc.Recv(0, i, buf)
			}
		}
		if cc.Rank() == 1 && p.skipped == 0 {
			t.Error("repeated recv of an Isend never skipped at loose tolerance")
		}
	})
}

func TestP2PDataIntegrityWhenExecuted(t *testing.T) {
	runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		if cc.Rank() == 0 {
			cc.Isend(1, 9, []float64{1, 2, 3})
			p.Waitall()
		} else {
			got := make([]float64, 3)
			cc.Recv(0, 9, got)
			if got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Errorf("profiled recv got %v", got)
			}
		}
	})
}

func TestSplitRowAllreduce(t *testing.T) {
	runProfiled(t, 16, 0.0, Options{Policy: Conditional, Eps: 0}, func(_ *Profiler, cc *Comm) {
		// 4x4 grid.
		row, col := cc.Rank()/4, cc.Rank()%4
		rowComm := cc.Split(row, col)
		colComm := cc.Split(col, row)
		if rowComm.Size() != 4 || colComm.Size() != 4 {
			t.Errorf("split sizes %d/%d", rowComm.Size(), colComm.Size())
		}
		// Communicate on the split communicators.
		sum := make([]float64, 1)
		rowComm.Allreduce([]float64{1}, sum, mpi.OpSum)
		if sum[0] != 4 {
			t.Errorf("row allreduce got %v", sum[0])
		}
	})
}

func TestEagerPropagationSwitchesKernelsOff(t *testing.T) {
	runProfiled(t, 16, 0.05, Options{Policy: Eager, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		row, col := cc.Rank()/4, cc.Rank()%4
		rowComm := cc.Split(row, col)
		colComm := cc.Split(col, row)
		buf := make([]float64, 32)
		for i := 0; i < 80; i++ {
			p.Kernel("tilework", 16, 16, 0, 0, 2e4, func() {})
			rowComm.Bcast(0, buf)
			colComm.Bcast(0, buf)
		}
		if p.PropagatedKernels() == 0 {
			t.Error("eager never propagated any kernel across the grid")
		}
		if p.skipped == 0 {
			t.Error("eager never skipped despite propagation")
		}
	})
}

// TestEagerCoverageDecides pins where the eager decision is made: a kernel is
// switched off only once the channels its pooled statistics travelled over
// compose a cartesian basis of the 4x4 grid. A row fiber alone never does;
// a row and a column fiber do, and so does the world channel by itself.
func TestEagerCoverageDecides(t *testing.T) {
	cases := []struct {
		name      string
		propagate bool
		step      func(world, rowComm, colComm *Comm, buf []float64)
	}{
		{"row-only", false, func(_, rowComm, _ *Comm, buf []float64) {
			rowComm.Bcast(0, buf)
		}},
		{"row-and-column", true, func(_, rowComm, colComm *Comm, buf []float64) {
			rowComm.Bcast(0, buf)
			colComm.Bcast(0, buf)
		}},
		{"world-allreduce", true, func(world, _, _ *Comm, buf []float64) {
			world.Allreduce(buf, make([]float64, len(buf)), mpi.OpSum)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runProfiled(t, 16, 0.05, Options{Policy: Eager, Eps: 0.3}, func(p *Profiler, cc *Comm) {
				row, col := cc.Rank()/4, cc.Rank()%4
				rowComm := cc.Split(row, col)
				colComm := cc.Split(col, row)
				buf := make([]float64, 32)
				for i := 0; i < 80; i++ {
					p.Kernel("tilework", 16, 16, 0, 0, 2e4, func() {})
					tc.step(cc, rowComm, colComm, buf)
				}
				prop, skipped := p.PropagatedKernels(), p.skipped
				if tc.propagate && (prop == 0 || skipped == 0) {
					t.Errorf("rank %d: propagated %d, skipped %d; want both > 0", cc.Rank(), prop, skipped)
				}
				if !tc.propagate && (prop != 0 || skipped != 0) {
					t.Errorf("rank %d: propagated %d, skipped %d; want 0 and 0", cc.Rank(), prop, skipped)
				}
			})
		})
	}
}

func TestEagerModelsPersistAcrossConfigs(t *testing.T) {
	runProfiled(t, 16, 0.05, Options{Policy: Eager, Eps: 0.3}, func(p *Profiler, cc *Comm) {
		row, col := cc.Rank()/4, cc.Rank()%4
		rowComm := cc.Split(row, col)
		colComm := cc.Split(col, row)
		buf := make([]float64, 32)
		run := func() {
			for i := 0; i < 60; i++ {
				p.Kernel("tilework", 16, 16, 0, 0, 2e4, func() {})
				rowComm.Bcast(0, buf)
				colComm.Bcast(0, buf)
			}
		}
		run()
		prop := p.PropagatedKernels()
		if prop == 0 {
			t.Fatal("no propagation in first config")
		}
		p.StartConfig(true) // reset requested, but eager keeps models
		if p.PropagatedKernels() != prop {
			t.Error("eager lost propagated models at config boundary")
		}
		execsBefore := p.executed
		run()
		if p.executed-execsBefore > 10 {
			// Most kernels should be skipped from the start of config 2.
			t.Errorf("eager re-executed %d kernels in second config", p.executed-execsBefore)
		}
	})
}

func TestStartConfigResets(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Online, Eps: 0}, func(p *Profiler, cc *Comm) {
		p.Kernel("a", 1, 1, 1, 0, 1e3, func() {})
		if len(p.PathFreqs()) == 0 {
			t.Fatal("path should have entries")
		}
		p.StartConfig(true)
		if len(p.PathFreqs()) != 0 {
			t.Error("path not cleared")
		}
		if p.KernelCount() != 0 {
			t.Error("stats not cleared with resetStats=true")
		}
		if cc.Clock() != 0 {
			t.Error("clock not reset")
		}
	})
}

func TestGlobalPathFreqs(t *testing.T) {
	runProfiled(t, 4, 0.0, Options{Policy: Online, Eps: 0}, func(p *Profiler, cc *Comm) {
		// Rank 3 does extra compute to own the critical path.
		iters := 5
		if cc.Rank() == 3 {
			iters = 9
		}
		for i := 0; i < iters; i++ {
			p.Kernel("w", 2, 2, 2, 0, 1e6, func() {})
		}
		buf := make([]float64, 8)
		cc.Bcast(0, buf) // propagation point
		freqs := p.GlobalPathFreqs()
		key := CompKey("w", 2, 2, 2, 0)
		if freqs[key] != 9 {
			t.Errorf("critical-path freq = %d, want 9 (rank 3's count)", freqs[key])
		}
	})
}

func TestAPrioriUsesSuppliedFreqs(t *testing.T) {
	key := CompKey("hot", 8, 8, 8, 0)
	// An Online eps-0 pass counts the kernel 400 times on the critical path,
	// as a sweep's offline pass does. Installed with SetAprioriFromPath, the
	// count shrinks the CI by sqrt(400), so the selective pass skips a kernel
	// that the same pass without the install, credited a count of 1, runs.
	selective := func(install bool) (executed int64) {
		runProfiled(t, 1, 0.3, Options{Policy: Online, Eps: 0}, func(p *Profiler, cc *Comm) {
			for i := 0; i < 400; i++ {
				p.Kernel("hot", 8, 8, 8, 0, 1e4, func() {})
			}
			want := int32(0)
			if install {
				p.SetAprioriFromPath()
				want = 400
			}
			if got := p.at(p.intern(key)).apriori; got != want {
				t.Errorf("install=%v: a-priori count %d, want %d", install, got, want)
			}
			p.SetPolicy(APriori)
			p.SetEps(0.01)
			p.StartConfig(false) // keep the offline pass's samples and ids
			for i := 0; i < 400; i++ {
				p.Kernel("hot", 8, 8, 8, 0, 1e4, func() {})
			}
			executed = p.executed
		})
		return executed
	}
	withFreq, without := selective(true), selective(false)
	if withFreq >= without {
		t.Errorf("apriori with freq 400 executed %d, without an install %d; want fewer", withFreq, without)
	}
}

func TestBSPAccounting(t *testing.T) {
	rep := runProfiled(t, 4, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 100)
		cc.Bcast(0, buf)                                       // 100 words, 1 sync
		cc.Allreduce(buf[:50], make([]float64, 50), mpi.OpSum) // 50 words, 1 sync
		p.Kernel("w", 1, 1, 1, 0, 1234, func() {})             // 1234 flops
	})
	if rep.BSPCommCrit != 150 {
		t.Errorf("BSP comm crit = %g, want 150", rep.BSPCommCrit)
	}
	if rep.BSPSyncCrit != 2 {
		t.Errorf("BSP sync crit = %g, want 2", rep.BSPSyncCrit)
	}
	if rep.BSPCompCrit != 1234 {
		t.Errorf("BSP comp crit = %g, want 1234", rep.BSPCompCrit)
	}
	// Volumetric equals critical here: all ranks did the same.
	if math.Abs(rep.BSPCommVol-150) > 1e-9 {
		t.Errorf("BSP comm vol = %g, want 150", rep.BSPCommVol)
	}
}

func TestPathMetricMaxPropagation(t *testing.T) {
	rep := runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		// Rank 1 computes more; after a collective, both ranks' pathsets
		// must carry rank 1's computation on the critical path.
		if cc.Rank() == 1 {
			p.Kernel("big", 4, 4, 4, 0, 1e7, func() {})
		}
		buf := make([]float64, 4)
		cc.Bcast(0, buf)
		if p.path.BSPComp < 1e7 {
			t.Errorf("rank %d path comp %g did not adopt critical-path flops", cc.Rank(), p.path.BSPComp)
		}
	})
	if rep.BSPCompCrit < 1e7 {
		t.Errorf("critical-path comp %g", rep.BSPCompCrit)
	}
}

func TestProfiledLapackWrappers(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		n := 8
		r := sim.NewRNG(3)
		g := make([]float64, n*n)
		for i := range g {
			g[i] = r.Float64()
		}
		a := make([]float64, n*n)
		p.Gemm(false, true, n, n, n, 1, g, n, g, n, 0, a, n)
		for i := 0; i < n; i++ {
			a[i+i*n] += float64(n)
		}
		if err := p.Potrf(n, a, n); err != nil {
			t.Fatalf("profiled potrf: %v", err)
		}
		if err := p.Trtri(n, a, n); err != nil {
			t.Fatalf("profiled trtri: %v", err)
		}
		if p.Samples(CompKey("gemm", n, n, n, 2)) != 1 {
			t.Error("gemm kernel not recorded under expected signature")
		}
		if p.Samples(CompKey("potrf", n, 0, 0, 0)) != 1 {
			t.Error("potrf kernel not recorded")
		}
	})
}

func TestKernelSignatureDistinguishesSizes(t *testing.T) {
	runProfiled(t, 1, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		p.Kernel("gemm", 8, 8, 8, 0, 1e3, func() {})
		p.Kernel("gemm", 16, 16, 16, 0, 8e3, func() {})
		if p.KernelCount() != 2 {
			t.Errorf("kernel count = %d, want 2 distinct signatures", p.KernelCount())
		}
	})
}

func TestReportDeterministic(t *testing.T) {
	run := func() Report {
		return runProfiled(t, 4, 0.08, Options{Policy: Online, Eps: 0.2}, func(p *Profiler, cc *Comm) {
			buf := make([]float64, 256)
			for i := 0; i < 30; i++ {
				cc.Bcast(i%4, buf)
				p.Kernel("w", 8, 8, 8, 0, 5e4, func() {})
				cc.Allreduce(buf[:16], make([]float64, 16), mpi.OpSum)
			}
		})
	}
	a, b := run(), run()
	if a.Predicted != b.Predicted || a.Wall != b.Wall || a.Executed != b.Executed {
		t.Errorf("reports differ across identical runs: %+v vs %+v", a, b)
	}
}

// TestReferenceArchivesNothing runs a NewReference profiler and its New twin
// (Conditional, eps 0) over the same keyed configurations on identical worlds
// and seeds, each world on a pool of its own, each configuration's noise
// keyed by the configuration as the sweep keys it. The reports must agree
// field for field. The reference is a clock: the twin runs a kernel's body
// once per Kernel call and the reference never; it keeps no record and
// archives nothing, its GlobalProfile is empty, and it neither takes nor
// makes a table in its pool's memo, so a selective profiler that restarts a
// configuration on the pool misses and makes its own table, where the twin's
// memo serves it.
func TestReferenceArchivesNothing(t *testing.T) {
	const ranks, configs = 4, 5
	// work calls Kernel twice per step, handing each call run.
	work := func(p *Profiler, cc *Comm, cfg int, run func()) {
		buf := make([]float64, 16)
		for i := 0; i < 6; i++ {
			d := 4 + 4*((cfg+i)%3)
			p.Kernel("gemm", d, d, d, 0, float64(d*d*d), run)
			p.Kernel("trsm", d, d, 0, 0, float64(d*d), run)
			cc.Allreduce(buf[:8], buf[8:], mpi.OpSum)
			peer := cc.Rank() ^ 1
			cc.Sendrecv(peer, 3, buf[:4], buf[4:8])
		}
	}
	type side struct {
		reports []Report
		global  *Profile
		memo    *kernelMemo
		// published and republished count the memo's tables before and
		// after the selective restart.
		published, republished int
		// runs counts the kernel bodies the configurations ran, on every
		// rank.
		runs atomic.Int64
	}
	published := func(m *kernelMemo) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.configs)
	}
	// run executes every configuration under a profiler from build, then a
	// selective profiler on the same pool restarts configuration 0.
	run := func(build func(*mpi.Comm) (*Profiler, *Comm), reference bool) *side {
		s := &side{}
		count := func() { s.runs.Add(1) }
		w := mpi.NewWorld(ranks, testMachine(0.05), 11)
		s.memo = mpi.Pooled[kernelMemo](w.BufPoolOf())
		err := w.Run(func(c *mpi.Comm) {
			p, cc := build(c)
			for cfg := 0; cfg < configs; cfg++ {
				ck := ConfigKey("ref", cfg)
				p.StartConfigKeyed(true, ck)
				c.Rekey(ck)
				work(p, cc, cfg, count)
				r := p.Report()
				if c.Rank() == 0 {
					s.reports = append(s.reports, r)
				}
				if !reference {
					continue
				}
				if a := &p.arch; len(a.segs) != 0 || len(a.models) != 0 || len(a.freqs) != 0 || a.families != nil {
					t.Errorf("config %d rank %d: the reference archived %d segments, %d models, %d frequencies, %d families",
						cfg, c.Rank(), len(a.segs), len(a.models), len(a.freqs), len(a.families))
				}
				if len(p.k) != 0 || p.KernelCount() != 0 || p.Table().Len() != 0 {
					t.Errorf("config %d rank %d: the reference holds %d records for %d kernels and interned %d signatures",
						cfg, c.Rank(), len(p.k), p.KernelCount(), p.Table().Len())
				}
				if !reflect.DeepEqual(p.scratch, kernelStats{}) {
					t.Errorf("config %d rank %d: the reference folded its interceptions into its scratch record: %+v",
						cfg, c.Rank(), p.scratch)
				}
			}
			g := p.GlobalProfile(0)
			if c.Rank() == 0 {
				s.global = g
				s.published = published(s.memo)
			}
			p.Retire()
			sel, scc := New(c, Options{Policy: Conditional, Eps: 0.25})
			ck := ConfigKey("ref", 0)
			sel.StartConfigKeyed(true, ck)
			c.Rekey(ck)
			work(sel, scc, 0, func() {})
			sel.Report()
		})
		if err != nil {
			t.Fatal(err)
		}
		s.republished = published(s.memo)
		return s
	}
	twin := func(c *mpi.Comm) (*Profiler, *Comm) {
		return New(c, Options{Policy: Conditional, Eps: 0})
	}
	ref := run(NewReference, true)
	full := run(twin, false)

	// Every configuration calls Kernel 12 times on each rank.
	if got, want := full.runs.Load(), int64(ranks*configs*12); got != want {
		t.Errorf("the twin ran %d kernel bodies, want one per Kernel call, %d", got, want)
	}
	if got := ref.runs.Load(); got != 0 {
		t.Errorf("the reference ran %d kernel bodies, want none", got)
	}
	for i := range ref.reports {
		if ref.reports[i] != full.reports[i] {
			t.Errorf("config %d: the reference reports %+v, its New twin %+v", i, ref.reports[i], full.reports[i])
		}
	}
	for _, want := range []struct {
		name                   string
		side                   *side
		hits, misses           int64
		published, republished int
	}{
		// The reference looks nothing up: the restart is the memo's first
		// lookup, a miss, and its table the memo's first.
		{"reference", ref, 0, 1, 0, 1},
		// The twin registers every configuration; the restart adopts one.
		{"twin", full, 1, configs, configs, configs},
	} {
		s := want.side
		if hits, misses := s.memo.lookups(); hits != want.hits || misses != want.misses {
			t.Errorf("%s's memo: %d hits and %d misses, want %d and %d", want.name, hits, misses, want.hits, want.misses)
		}
		if s.published != want.published || s.republished != want.republished {
			t.Errorf("%s's memo: %d tables before the selective restart and %d after, want %d and %d",
				want.name, s.published, s.republished, want.published, want.republished)
		}
	}
	if g := ref.global; g.Samples() != 0 || len(g.Kernels) != 0 || len(g.PathFreqs) != 0 || len(g.Families) != 0 {
		t.Errorf("the reference's GlobalProfile is not empty: %+v", g)
	}
	if full.global.Samples() == 0 {
		t.Error("the twin's GlobalProfile holds no samples")
	}
}

// TestProfileIncludesCommKernels: a communication kernel is counted on the
// rank's path like a computation kernel, once per call.
func TestProfileIncludesCommKernels(t *testing.T) {
	runProfiled(t, 2, 0.0, Options{Policy: Conditional, Eps: 0}, func(p *Profiler, cc *Comm) {
		buf := make([]float64, 1024)
		for i := 0; i < 3; i++ {
			cc.Bcast(0, buf)
		}
		found := false
		for k, n := range p.PathFreqs() {
			if k.Kind == KindComm && k.Name() == "bcast" {
				found = true
				if n != 3 {
					t.Errorf("bcast path count = %d", n)
				}
			}
		}
		if !found {
			t.Error("communication kernel missing from the path")
		}
	})
}
