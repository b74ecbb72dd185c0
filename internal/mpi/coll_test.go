package mpi

// Tests of the data collectives on reduceRound: every collective against a
// sequential oracle, bit for bit; callers whose input aliases their output;
// every argument error surfacing from World.Run as an error that names the
// operation and the offending rank; and the steady state allocating
// nothing.

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"critter/internal/sim"
)

// collInputs returns p deterministic length-n vectors whose sums depend on
// the order of addition (mixed magnitudes and signs).
func collInputs(p, n int) [][]float64 {
	rng := sim.NewRNG(sim.Mix(uint64(p), uint64(n), 0xc011))
	in := make([][]float64, p)
	for r := range in {
		in[r] = make([]float64, n)
		for i := range in[r] {
			in[r][i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
		}
	}
	return in
}

// foldOracle is the sequential reference of Allreduce: rank 0's
// vector, then every other rank's folded in elementwise in rank order.
func foldOracle(in [][]float64, op ReduceOp) []float64 {
	acc := append([]float64(nil), in[0]...)
	for _, v := range in[1:] {
		for i, x := range v {
			acc[i] = op.apply(acc[i], x)
		}
	}
	return acc
}

// concatOracle is the sequential reference of Allgather/Gather.
func concatOracle(in [][]float64) []float64 {
	var out []float64
	for _, v := range in {
		out = append(out, v...)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCollectivesMatchSequentialOracle drives every data collective over
// communicator sizes {1,2,3,5,8,64} and vector lengths {0,1,7,64} and
// compares every rank's result with the sequential oracle, bit-exact.
func TestCollectivesMatchSequentialOracle(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 64} {
		for _, n := range []int{0, 1, 7, 64} {
			in := collInputs(p, n)
			all := concatOracle(in)
			ops := []ReduceOp{OpSum, OpMax, OpMin}
			folds := make([][]float64, len(ops))
			for i, op := range ops {
				folds[i] = foldOracle(in, op)
			}
			root := p - 1
			run(t, p, func(c *Comm) {
				r := c.Rank()
				fail := func(what string, got, want []float64) {
					t.Errorf("p=%d n=%d rank %d: %s = %v, want %v", p, n, r, what, got, want)
				}
				for i, op := range ops {
					want := folds[i]
					out := make([]float64, n)
					c.Allreduce(in[r], out, op)
					if !sameBits(out, want) {
						fail("allreduce", out, want)
					}
				}
				buf := make([]float64, n)
				if r == root {
					copy(buf, in[root])
				}
				c.Bcast(root, buf)
				if !sameBits(buf, in[root]) {
					fail("bcast", buf, in[root])
				}
				out := make([]float64, n*p)
				c.Allgather(in[r], out)
				if !sameBits(out, all) {
					fail("allgather", out, all)
				}
				out = make([]float64, n*p)
				c.Gather(root, in[r], out)
				if r == root && !sameBits(out, all) {
					fail("gather", out, all)
				}
				seg := make([]float64, n)
				c.Scatter(root, all, seg)
				if !sameBits(seg, in[r]) {
					fail("scatter", seg, in[r])
				}
				c.Barrier()
			})
		}
	}
}

// TestCollectivesInputAliasingOutput covers callers that pass overlapping
// input and output: the collectives work on views of the callers' buffers,
// so each must have read all it needs of a member's input before it writes
// that member's output.
func TestCollectivesInputAliasingOutput(t *testing.T) {
	const p, n = 5, 7
	in := collInputs(p, n)
	all := concatOracle(in)
	sum := foldOracle(in, OpSum)
	run(t, p, func(c *Comm) {
		r := c.Rank()
		mine := func() []float64 { return append([]float64(nil), in[r]...) }

		buf := mine()
		c.Allreduce(buf, buf, OpSum)
		if !sameBits(buf, sum) {
			t.Errorf("rank %d: allreduce in place = %v, want %v", r, buf, sum)
		}

		// Allgather with the input already in its own segment of out (the
		// MPI_IN_PLACE layout), then with it in segment 0, where every
		// rank but 0 has its input overwritten by rank 0's.
		out := make([]float64, n*p)
		copy(out[r*n:], in[r])
		c.Allgather(out[r*n:(r+1)*n], out)
		if !sameBits(out, all) {
			t.Errorf("rank %d: allgather in place = %v, want %v", r, out, all)
		}
		out = make([]float64, n*p)
		copy(out, in[r])
		c.Allgather(out[:n], out)
		if !sameBits(out, all) {
			t.Errorf("rank %d: allgather from segment 0 = %v, want %v", r, out, all)
		}

		// Bcast into the middle of a larger buffer: neighbours untouched.
		wide := make([]float64, n+2)
		wide[0], wide[n+1] = -1, -2
		if r == 2 {
			copy(wide[1:], in[2])
		}
		c.Bcast(2, wide[1:n+1])
		if !sameBits(wide[1:n+1], in[2]) || wide[0] != -1 || wide[n+1] != -2 {
			t.Errorf("rank %d: bcast into a sub-slice left %v", r, wide)
		}

		// Root-only outputs overlapping the root's input.
		out = make([]float64, n*p)
		copy(out, in[r])
		c.Gather(3, out[:n], out)
		if r == 3 && !sameBits(out, all) {
			t.Errorf("gather from segment 0 at root = %v, want %v", out, all)
		}
		full := append([]float64(nil), all...)
		c.Scatter(3, full, full[:n])
		if !sameBits(full[:n], in[r]) {
			t.Errorf("rank %d: scatter into the head of in = %v, want %v", r, full[:n], in[r])
		}
	})
}

// TestBcastSharedBuffer passes one slice from every rank — the copy onto
// itself must be harmless.
func TestBcastSharedBuffer(t *testing.T) {
	buf := []float64{3, 1, 4, 1, 5}
	run(t, 4, func(c *Comm) { c.Bcast(1, buf) })
	if !sameBits(buf, []float64{3, 1, 4, 1, 5}) {
		t.Errorf("shared bcast buffer = %v", buf)
	}
}

// TestCollectiveArgumentErrors gives each data collective an argument error
// on exactly one rank. finish runs on the last arriver, whichever rank that
// is, so the error must abort the world and come back from Run naming the
// operation and the offending rank. Each case runs under every pick order
// to vary who arrives last.
func TestCollectiveArgumentErrors(t *testing.T) {
	const p = 4
	// lenAt returns want everywhere but at rank bad, where it returns
	// want+1.
	lenAt := func(c *Comm, bad, want int) int {
		if c.Rank() == bad {
			return want + 1
		}
		return want
	}
	cases := []struct {
		name string
		body func(c *Comm)
		want []string
	}{
		{"bcast length", func(c *Comm) {
			c.Bcast(0, make([]float64, lenAt(c, 2, 3)))
		}, []string{"bcast length mismatch", "rank 2 has 4"}},
		{"bcast length at root", func(c *Comm) {
			c.Bcast(1, make([]float64, lenAt(c, 1, 3)))
		}, []string{"bcast length mismatch", "root has 4"}},
		{"allreduce input length", func(c *Comm) {
			c.Allreduce(make([]float64, lenAt(c, 3, 3)), make([]float64, 3), OpMax)
		}, []string{"allreduce length mismatch", "rank 3"}},
		{"allreduce output length", func(c *Comm) {
			c.Allreduce(make([]float64, 3), make([]float64, lenAt(c, 2, 3)), OpMax)
		}, []string{"allreduce length mismatch", "rank 2"}},
		{"allgather ragged", func(c *Comm) {
			c.Allgather(make([]float64, lenAt(c, 2, 2)), make([]float64, 2*p))
		}, []string{"gather ragged input", "rank 2 has 3"}},
		{"allgather output length", func(c *Comm) {
			c.Allgather(make([]float64, 2), make([]float64, lenAt(c, 1, 2*p)))
		}, []string{"gather length mismatch", "rank 1"}},
		{"gather ragged", func(c *Comm) {
			c.Gather(0, make([]float64, lenAt(c, 3, 2)), make([]float64, 2*p))
		}, []string{"gather ragged input", "rank 3 has 3"}},
		{"gather output length", func(c *Comm) {
			c.Gather(2, make([]float64, 2), make([]float64, lenAt(c, 2, 2*p)))
		}, []string{"gather length mismatch", "rank 2"}},
		{"scatter segment size", func(c *Comm) {
			c.Scatter(0, make([]float64, 2*p), make([]float64, lenAt(c, 1, 2)))
		}, []string{"scatter length mismatch", "rank 1"}},
		{"scatter input size", func(c *Comm) {
			c.Scatter(3, make([]float64, lenAt(c, 3, 2*p)), make([]float64, 2))
		}, []string{"scatter length mismatch", "in 9"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, o := range pickOrders {
				err := o.world(p, quietMachine(), 1).Run(func(c *Comm) {
					tc.body(c)
					// The world is aborted: nobody gets past another round.
					c.Barrier()
				})
				if err == nil {
					t.Errorf("%s: Run returned nil", o.name)
					continue
				}
				if errors.Is(err, errDeadlock) {
					t.Errorf("%s: reported as a deadlock: %v", o.name, err)
				}
				for _, s := range tc.want {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("%s: error %q does not contain %q", o.name, err, s)
					}
				}
			}
		})
	}
}

// TestTypedFinishPanicAbortsWorld panics inside the finish of a typed
// allreduce: the last arriver unwinds, the waiting members are stopped by
// the abort, and Run returns the panic value.
func TestTypedFinishPanicAbortsWorld(t *testing.T) {
	boom := errors.New("finish exploded")
	for _, p := range []int{1, 2, 8} {
		w := NewWorld(p, quietMachine(), 1)
		lane := LaneOf[int](w)
		err := w.Run(func(c *Comm) {
			lane.Allreduce(c, c.Rank(), func(members []int) { panic(boom) })
			t.Errorf("p=%d rank %d returned from an allreduce whose finish panicked", p, c.Rank())
		})
		if !errors.Is(err, boom) {
			t.Errorf("p=%d: Run error %v does not wrap the finish panic", p, err)
		}
	}
}

// TestLaneAllreduceFinishSeesRankOrder checks the contract finish relies on:
// one call per round, slots indexed by comm rank (sub-communicators
// included), and each member leaving with exactly its own slot.
func TestLaneAllreduceFinishSeesRankOrder(t *testing.T) {
	var calls [2]int // finish calls per colour
	run(t, 6, func(c *Comm) {
		sub := c.Split(c.Rank()%2, -c.Rank()) // reversed order within each colour
		colour := c.Rank() % 2
		for i := 0; i < 3; i++ {
			got := LaneOf[int](c.w).Allreduce(sub, 100*c.Rank(), func(members []int) {
				calls[colour]++
				for r, v := range members {
					// Comm rank r of the reversed group is world rank
					// colour + 2*(2-r).
					if want := 100 * (colour + 2*(2-r)); v != want {
						t.Errorf("colour %d slot %d holds %d, want %d", colour, r, v, want)
					}
					members[r] = v + r
				}
			})
			if want := 100*c.Rank() + sub.Rank(); got != want {
				t.Errorf("rank %d left with %d, want its own slot %d", c.Rank(), got, want)
			}
		}
	})
	if calls != [2]int{3, 3} {
		t.Errorf("finish ran %v times per colour over 3 rounds each, want 3 and 3", calls)
	}
}

// TestReduceRoundRecyclesWithoutPinning checks the fabric's freelist: rounds
// come back with their slots cleared (a recycled round must not keep a
// delivered payload alive) and the list stays within its bound.
func TestReduceRoundRecyclesWithoutPinning(t *testing.T) {
	w := NewWorld(3, quietMachine(), 1)
	lane := LaneOf[[]float64](w)
	if err := w.Run(func(c *Comm) {
		for i := 0; i < 200; i++ {
			lane.Allreduce(c, []float64{1, 2, 3}, nil)
		}
	}); err != nil {
		t.Fatal(err)
	}
	f := lane.f
	if len(f.rounds) != 0 {
		t.Errorf("fabric still maps %d finished rounds", len(f.rounds))
	}
	if len(f.free) > maxFreeRounds {
		t.Errorf("freelist holds %d rounds, bound is %d", len(f.free), maxFreeRounds)
	}
	if len(f.free) == 0 {
		t.Error("no round was recycled")
	}
	for _, rd := range f.free {
		if rd.arrived != 0 || rd.departed != 0 {
			t.Errorf("recycled round not reset: %+v", rd)
		}
		for _, p := range rd.payloads[:cap(rd.payloads)] {
			if p != nil {
				t.Errorf("recycled round still holds payload %v", p)
			}
		}
	}
}

// mallocsDuring runs op on every rank of a p-rank world iters times, after
// warm further rounds of it, and returns how many heap objects the whole
// process allocated meanwhile. Raw barriers fence the measurement: while
// rank 0 reads the counter every other rank waits.
func mallocsDuring(t *testing.T, p, warm, iters int, setup func(c *Comm) (op func())) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	run(t, p, func(c *Comm) {
		op := setup(c)
		for i := 0; i < warm; i++ {
			op()
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		for i := 0; i < iters; i++ {
			op()
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		c.Barrier()
	})
	return after.Mallocs - before.Mallocs
}

// TestAllreduceSteadyStateAllocatesNothing: after warm-up, 1000 raw
// Comm.Allreduce calls on 8 ranks add zero mallocs per operation — no input
// copy, no round, no slot or clock slice, no closure.
func TestAllreduceSteadyStateAllocatesNothing(t *testing.T) {
	const iters = 1000
	n := mallocsDuring(t, 8, 200, iters, func(c *Comm) func() {
		in, out := make([]float64, 32), make([]float64, 32)
		return func() { c.Allreduce(in, out, OpSum) }
	})
	// A handful of objects belong to the runtime (a sudog, a timer), not
	// to the operations; anything per-operation shows as a thousand.
	if n >= iters/10 {
		t.Errorf("%d mallocs over %d allreduces on 8 ranks, want none per operation", n, iters)
	}
}

// TestCostOnlyCollectivesMatchData runs each data collective on a cost-only
// world (every rank calls World.MarkCostOnly first) and on its data twin on
// 1, 2, 3 and 8 ranks, entered after an untimed round that equalizes
// staggered clocks, three times over so the round sequence advances. Every
// rank's returned durations and final clock must be bit-identical, and the
// cost-only output buffers must keep their contents.
func TestCostOnlyCollectivesMatchData(t *testing.T) {
	const n = 5
	const sentinel = -3.25
	ops := []struct {
		name string
		run  func(c *Comm, in, out []float64) float64
	}{
		{"barrier", func(c *Comm, in, out []float64) float64 { return c.Barrier() }},
		{"bcast", func(c *Comm, in, out []float64) float64 { return c.Bcast(c.Size()-1, out[:n]) }},
		{"allreduce", func(c *Comm, in, out []float64) float64 { return c.Allreduce(in[:n], out[:n], OpSum) }},
		{"allgather", func(c *Comm, in, out []float64) float64 { return c.Allgather(in[:n], out) }},
		{"gather", func(c *Comm, in, out []float64) float64 { return c.Gather(0, in[:n], out) }},
		{"scatter", func(c *Comm, in, out []float64) float64 { return c.Scatter(c.Size()/2, in, out[:n]) }},
	}
	m := sim.DefaultMachine()
	m.NoiseSigma = 0.1
	for _, p := range []int{1, 2, 3, 8} {
		for _, op := range ops {
			// times runs the operation and returns every rank's durations
			// and final clock, failing if a cost-only run touched out.
			times := func(costOnly bool) [][]float64 {
				got := make([][]float64, p)
				err := NewWorld(p, m, 11).Run(func(c *Comm) {
					if costOnly {
						c.World().MarkCostOnly()
					}
					in := make([]float64, n*p)
					for i := range in {
						in[i] = float64(c.Rank()*100 + i)
					}
					out := make([]float64, n*p)
					c.AdvanceClock(1e-6 * float64(c.Rank()+1))
					for range 3 {
						for i := range out {
							out[i] = sentinel
						}
						AllreduceMsg(c, 0, func(a, b int) int { return a })
						got[c.Rank()] = append(got[c.Rank()], op.run(c, in, out))
						for i, v := range out {
							if costOnly && v != sentinel {
								t.Errorf("p=%d %s: cost-only rank %d wrote %v into out[%d]", p, op.name, c.Rank(), v, i)
							}
						}
						c.Compute(float64(1000 * (c.Rank() + 1)))
					}
					got[c.Rank()] = append(got[c.Rank()], c.Clock())
				})
				if err != nil {
					t.Fatalf("p=%d %s: %v", p, op.name, err)
				}
				return got
			}
			data, cost := times(false), times(true)
			for r := range p {
				for i := range data[r] {
					if math.Float64bits(cost[r][i]) != math.Float64bits(data[r][i]) {
						t.Errorf("p=%d %s rank %d: cost-only times %v, data %v", p, op.name, r, cost[r], data[r])
						break
					}
				}
			}
		}
	}
}
