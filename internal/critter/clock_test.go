package critter

import (
	"bytes"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"critter/internal/mpi"
	"critter/internal/sim"
)

// kernelModel is what a rank reports of one kernel: its modeled mean, as
// bits so a NaN compares equal to itself, and its sample count.
type kernelModel struct {
	meanBits uint64
	samples  int64
}

// clockSide is what one run of TestClockMatchesArithmeticTwin's program
// leaves: rank 0's reports, each rank's path table and per-kernel models
// after every configuration, the encoded global profile, and how many
// computation kernels the ranks executed and how many bodies they ran.
type clockSide struct {
	reports []Report
	freqs   [][]map[Key]int64       // [rank][config]
	models  [][]map[Key]kernelModel // [rank][config]
	profile []byte
	extrap  int64 // rank 0's extrapolated skips, over the configurations
	execs   atomic.Int64
	runs    atomic.Int64
}

// TestClockMatchesArithmeticTwin runs one program — computation kernels,
// collectives and Isend/Recv/Waitall on 2- to 4-rank worlds, several keyed
// configurations — under a New profiler and under a NewClock profiler with
// the same options, on identical worlds and seeds, for every policy (the
// a-priori one with a sweep's offline pass and SetAprioriFromPath) and once
// with Extrapolate on. A clock runs no kernel's body, and nothing it reports
// may tell it apart from the profiler that runs them all: the reports, every
// rank's PathFreqs and per-kernel Mean/Samples after each configuration, and
// the bytes of the encoded GlobalProfile are equal. The New profiler runs a
// body once per computation kernel it executes, the clock never.
func TestClockMatchesArithmeticTwin(t *testing.T) {
	const configs, steps = 4, 12
	cases := []struct {
		name  string
		ranks int
		opts  Options
	}{
		{"conditional", 2, Options{Policy: Conditional, Eps: 0.25}},
		{"online", 4, Options{Policy: Online, Eps: 0.25}},
		{"apriori", 3, Options{Policy: APriori, Eps: 0.25}},
		{"eager", 4, Options{Policy: Eager, Eps: 0.25}},
		{"online-extrapolate", 4, Options{Policy: Online, Eps: 0.25, Extrapolate: true}},
	}
	// work is one configuration's program. Every computation kernel hands
	// over run, and the kernels this rank executes are added to execs.
	work := func(p *Profiler, cc *Comm, cfg int, run func(), execs *atomic.Int64) {
		r, n := cc.Rank(), cc.Size()
		buf := make([]float64, 32)
		kernel := func(name string, d1, d2, d3 int, flops float64) {
			before := p.executed
			p.Kernel(name, d1, d2, d3, 0, flops, run)
			execs.Add(p.executed - before)
		}
		for i := range steps {
			// Three sizes, then a fourth the fitted families may skip unseen.
			d := 4 + 4*((cfg+i)%3)
			if i >= 9 {
				d += 4
			}
			kernel("gemm", d, d, d, float64(2*d*d*d))
			kernel("trsm", d, d+r%2, 0, float64(d*d*(d+r%2)))
			cc.Allreduce(buf[:8], buf[8:16], mpi.OpSum)
			cc.Bcast(i%n, buf[16:24])
			cc.Isend((r+1)%n, i, buf[24:28])
			cc.Recv((r+n-1)%n, i, buf[28:32])
			p.Waitall()
		}
	}
	// snap records this rank's path table and the model of every kernel
	// the configuration's table interned.
	snap := func(s *clockSide, p *Profiler) {
		r := p.rank
		models := make(map[Key]kernelModel)
		for id := range p.Table().Len() {
			k := p.Table().KeyOf(uint32(id))
			models[k] = kernelModel{math.Float64bits(p.Mean(k)), p.Samples(k)}
		}
		s.freqs[r] = append(s.freqs[r], p.PathFreqs())
		s.models[r] = append(s.models[r], models)
	}
	run := func(t *testing.T, ranks int, opts Options, build func(*mpi.Comm, Options) (*Profiler, *Comm)) *clockSide {
		s := &clockSide{
			freqs:  make([][]map[Key]int64, ranks),
			models: make([][]map[Key]kernelModel, ranks),
		}
		count := func() { s.runs.Add(1) }
		w := mpi.NewWorld(ranks, testMachine(0.05), 19)
		err := w.Run(func(c *mpi.Comm) {
			p, cc := build(c, opts)
			for cfg := range configs {
				ck := ConfigKey("clock", cfg)
				p.StartConfigKeyed(true, ck)
				if opts.Policy == APriori {
					// A sweep's offline pass: full execution under online
					// propagation, then its critical-path counts.
					p.SetPolicy(Online)
					p.SetEps(0)
					c.Rekey(sim.Mix(ck, 1))
					work(p, cc, cfg, count, &s.execs)
					off := p.Report()
					p.SetAprioriFromPath()
					p.SetPolicy(APriori)
					p.SetEps(opts.Eps)
					p.StartConfig(false)
					if c.Rank() == 0 {
						s.reports = append(s.reports, off)
					}
				}
				c.Rekey(ck)
				work(p, cc, cfg, count, &s.execs)
				rep := p.Report()
				if c.Rank() == 0 {
					s.reports = append(s.reports, rep)
					s.extrap += p.ExtrapolatedSkips()
				}
				snap(s, p)
			}
			g := p.GlobalProfile(0)
			if c.Rank() == 0 {
				data, err := g.Encode()
				if err != nil {
					panic(err)
				}
				s.profile = data
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := run(t, tc.ranks, tc.opts, New)
			clock := run(t, tc.ranks, tc.opts, NewClock)

			var skipped int64
			for _, r := range full.reports {
				skipped += r.Skipped
			}
			if full.execs.Load() == 0 || skipped == 0 {
				t.Fatalf("the program executed %d computation kernels and skipped %d kernels: it must do both",
					full.execs.Load(), skipped)
			}
			if tc.opts.Extrapolate && full.extrap == 0 {
				t.Error("no skip was decided by a family fit")
			}
			if got, want := full.runs.Load(), full.execs.Load(); got != want {
				t.Errorf("New ran %d kernel bodies, want one per executed computation kernel, %d", got, want)
			}
			if got := clock.runs.Load(); got != 0 {
				t.Errorf("the clock ran %d kernel bodies, want none", got)
			}
			if got, want := clock.execs.Load(), full.execs.Load(); got != want {
				t.Errorf("the clock executed %d computation kernels, New %d", got, want)
			}
			if len(clock.reports) != len(full.reports) {
				t.Fatalf("the clock made %d reports, New %d", len(clock.reports), len(full.reports))
			}
			for i := range full.reports {
				if clock.reports[i] != full.reports[i] {
					t.Errorf("report %d: the clock reports %+v, New %+v", i, clock.reports[i], full.reports[i])
				}
			}
			for r := range tc.ranks {
				for cfg := range configs {
					if !reflect.DeepEqual(clock.freqs[r][cfg], full.freqs[r][cfg]) {
						t.Errorf("rank %d config %d: the clock's PathFreqs %v, New's %v", r, cfg, clock.freqs[r][cfg], full.freqs[r][cfg])
					}
					if !reflect.DeepEqual(clock.models[r][cfg], full.models[r][cfg]) {
						t.Errorf("rank %d config %d: the clock's models %v, New's %v", r, cfg, clock.models[r][cfg], full.models[r][cfg])
					}
				}
			}
			if !bytes.Equal(clock.profile, full.profile) {
				t.Errorf("the global profiles differ:\nclock %s\nNew   %s", clock.profile, full.profile)
			}
		})
	}
}

// TestClockMovesNoData runs every profiled communication operation on 4
// ranks under NewClock and under New, at tolerance zero so that every leg
// executes, into receive buffers pre-filled with a sentinel, plus one raw
// message on the user communicator. A clock marks its world cost-only, so
// its legs and the raw message charge their time and move no data: its
// buffers keep the sentinel while New's receive what was sent. Nothing else
// may tell the two apart: every rank's clock, Report and PathFreqs are
// equal.
func TestClockMovesNoData(t *testing.T) {
	const ranks, n = 4, 6
	const sentinel = -7.5
	type side struct {
		clocks  []float64
		reports []Report
		freqs   []map[Key]int64
		recv    [][]float64 // each rank's receive buffers, concatenated
	}
	run := func(build func(*mpi.Comm, Options) (*Profiler, *Comm)) side {
		s := side{
			clocks:  make([]float64, ranks),
			reports: make([]Report, ranks),
			freqs:   make([]map[Key]int64, ranks),
			recv:    make([][]float64, ranks),
		}
		err := mpi.NewWorld(ranks, testMachine(0.05), 23).Run(func(c *mpi.Comm) {
			p, cc := build(c, Options{Policy: Conditional, Eps: 0})
			if c.World().CostOnly() != p.clock {
				t.Errorf("rank %d: a world with a clock: %v, cost-only: %v", c.Rank(), p.clock, c.World().CostOnly())
			}
			p.StartConfig(true)
			r := cc.Rank()
			src := make([]float64, n*ranks)
			for i := range src {
				src[i] = float64(100*r + i)
			}
			var recv [][]float64
			fill := func(k int) []float64 {
				b := make([]float64, k)
				for i := range b {
					b[i] = sentinel
				}
				recv = append(recv, b)
				return b
			}
			// Unequal clocks going into every operation.
			p.Kernel("gemm", 4+r, 4, 4, 0, float64(1000*(r+1)), func() {})
			cc.Barrier()
			if r == 1 {
				cc.Bcast(1, src[:n])
			} else {
				cc.Bcast(1, fill(n))
			}
			cc.Allreduce(src[:n], fill(n), mpi.OpSum)
			cc.Allgather(src[:n], fill(n*ranks))
			if r == 2 {
				cc.Gather(2, src[:n], fill(n*ranks))
			} else {
				cc.Gather(2, src[:n], nil)
			}
			if r == 0 {
				cc.Scatter(0, src, fill(n))
			} else {
				cc.Scatter(0, nil, fill(n))
			}
			p.Kernel("gemm", 4+r, 4, 4, 0, float64(1000*(r+1)), func() {})
			cc.Isend((r+1)%ranks, 5, src[:n])
			cc.Recv((r+ranks-1)%ranks, 5, fill(n))
			p.Waitall()
			cc.Sendrecv(r^1, 6, src[:n], fill(n))
			c.Send((r+1)%ranks, 7, src[:n])
			c.Recv((r+ranks-1)%ranks, 7, fill(n))
			s.reports[r] = p.Report()
			s.clocks[r] = c.Clock()
			s.freqs[r] = p.PathFreqs()
			for _, b := range recv {
				s.recv[r] = append(s.recv[r], b...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	full, clock := run(New), run(NewClock)
	if full.reports[0].Skipped != 0 || full.reports[0].Executed == 0 {
		t.Fatalf("New executed %d kernels and skipped %d: every leg must execute",
			full.reports[0].Executed, full.reports[0].Skipped)
	}
	for r := range ranks {
		if math.Float64bits(clock.clocks[r]) != math.Float64bits(full.clocks[r]) {
			t.Errorf("rank %d: the clock's clock %v, New's %v", r, clock.clocks[r], full.clocks[r])
		}
		if clock.reports[r] != full.reports[r] {
			t.Errorf("rank %d: the clock reports %+v, New %+v", r, clock.reports[r], full.reports[r])
		}
		if !reflect.DeepEqual(clock.freqs[r], full.freqs[r]) {
			t.Errorf("rank %d: the clock's PathFreqs %v, New's %v", r, clock.freqs[r], full.freqs[r])
		}
		moved := 0
		for i, v := range clock.recv[r] {
			if v != sentinel {
				t.Errorf("rank %d: the clock wrote %v into receive word %d", r, v, i)
			}
			if full.recv[r][i] != sentinel {
				moved++
			}
		}
		if moved == 0 {
			t.Errorf("rank %d: New received nothing either", r)
		}
	}
}
