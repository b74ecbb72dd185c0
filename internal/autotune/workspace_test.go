package autotune_test

import (
	"math"
	"runtime"
	"testing"

	"critter/internal/autotune"
	"critter/internal/candmc"
	"critter/internal/capital"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
	"critter/internal/sim"
	"critter/internal/slate"
)

// warmRunAllocBound is what one repeated configuration of a factorization
// may allocate on an 8-rank world, all ranks together, once the ranks'
// workspaces have grown: the grid's communicators, the matrix header, a
// request list — 15 to 35 KB — and, for a few runs, whatever the runtime's
// own per-rank buffers still take to settle (a rank grows its collective
// scratch the first time it happens to arrive last at the largest round;
// 140 KB has been seen). With every per-step buffer made anew, the candmc
// configuration below allocated 3.4 MB and the capital one 5.9 MB on every
// repetition; slate.QR drew its per-iteration buffers from the world's pool
// already and stood at 30 to 40 KB.
const warmRunAllocBound = 256 << 10

// TestWarmRunsRepeatAndAllocateNothing runs one configuration of candmc,
// capital and slate-qr five times on one 8-rank world with a buffer pool,
// under full execution and under online propagation at eps 0.5 (on a
// noise-free machine, so every run meets the same skip decisions): the
// later runs work entirely in buffers the first one dirtied, so their
// gathered factors must be bit-equal to the first's — every buffer a kernel
// reads is as make would have left it, executed or skipped — and they must
// allocate next to nothing.
func TestWarmRunsRepeatAndAllocateNothing(t *testing.T) {
	type factorization func(p *critter.Profiler, cc *critter.Comm) (gather func() []float64)
	libs := []struct {
		name string
		run  factorization
	}{
		{"candmc", func(p *critter.Profiler, cc *critter.Comm) func() []float64 {
			cfg := candmc.Config{M: 512, N: 128, B: 8, PR: 4, PC: 2, Panel: candmc.PanelTSQR}
			a := candmc.NewMatrix(grid.New2D(cc, cfg.PR, cfg.PC), cfg)
			a.FillGeneral(7)
			candmc.QR(p, a, cfg)
			return func() []float64 { return a.GatherDense(0) }
		}},
		{"capital", func(p *critter.Profiler, cc *critter.Comm) func() []float64 {
			cfg := capital.Config{N: 128, B: 16, BB: 2, Strategy: 1, C: 2}
			ch := capital.New(p, grid.New3D(cc, cfg.C), cfg)
			ch.Run()
			return func() []float64 { return append(ch.GatherFactor(ch.L), ch.GatherFactor(ch.Linv)...) }
		}},
		{"slate-qr", func(p *critter.Profiler, cc *critter.Comm) func() []float64 {
			cfg := slate.QRConfig{M: 48, N: 24, NB: 6, IB: 2, PR: 4, PC: 2}
			a := slate.NewTileMatrix(grid.New2D(cc, cfg.PR, cfg.PC), cfg.M/cfg.NB, cfg.N/cfg.NB, cfg.NB)
			a.FillGeneral(3)
			slate.QR(p, a, cfg)
			return func() []float64 {
				defer a.Release()
				return a.GatherDense(0)
			}
		}},
	}
	quiet := sim.DefaultMachine()
	quiet.NoiseSigma = 0
	modes := []struct {
		name    string
		machine sim.Machine
		opts    critter.Options
	}{
		{"full", sim.DefaultMachine(), critter.Options{Policy: critter.Conditional, Eps: 0}},
		{"online", quiet, critter.Options{Policy: critter.Online, Eps: 0.5}},
	}
	for _, lib := range libs {
		for _, mode := range modes {
			t.Run(lib.name+"/"+mode.name, func(t *testing.T) {
				const runs = 5
				var factors [runs][]float64
				var allocated [runs]uint64
				var skipped [runs]int64
				w := mpi.NewWorld(8, mode.machine, 42)
				err := w.Run(func(c *mpi.Comm) {
					p, cc := critter.New(c, mode.opts)
					ws := c.Workspace()
					for run := range factors {
						mark := ws.Mark()
						p.StartConfigKeyed(true, 1) // later runs adopt the first's kernel table
						var before, after runtime.MemStats
						if c.Rank() == 0 {
							runtime.ReadMemStats(&before)
						}
						c.Barrier()
						gather := lib.run(p, cc)
						c.Barrier()
						if c.Rank() == 0 {
							runtime.ReadMemStats(&after)
							allocated[run] = after.TotalAlloc - before.TotalAlloc
						}
						rep := p.Report()
						if f := gather(); c.Rank() == 0 {
							factors[run], skipped[run] = f, rep.Skipped
						}
						ws.Release(mark)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(factors[0]) == 0 {
					t.Fatal("nothing gathered")
				}
				for run := 1; run < runs; run++ {
					if len(factors[run]) != len(factors[0]) {
						t.Fatalf("run %d gathered %d words, the first %d", run+1, len(factors[run]), len(factors[0]))
					}
					for i := range factors[0] {
						if math.Float64bits(factors[0][i]) != math.Float64bits(factors[run][i]) {
							t.Fatalf("word %d of the factor: %v on the first run, %v on run %d", i, factors[0][i], factors[run][i], run+1)
						}
					}
					if skipped[run] != skipped[0] {
						t.Errorf("run %d skipped %d kernels, the first %d", run+1, skipped[run], skipped[0])
					}
					if allocated[run] > warmRunAllocBound {
						t.Errorf("run %d allocated %d bytes (the first %d), want at most %d", run+1, allocated[run], allocated[0], warmRunAllocBound)
					}
				}
				if mode.opts.Eps > 0 && skipped[0] == 0 {
					t.Error("the selective case skipped nothing: it does not exercise skipped kernels over dirty buffers")
				}
				t.Logf("allocated %d bytes per run, skipped %d kernels", allocated, skipped[0])
			})
		}
	}
}

// TestClockWorldHoldsNoNumbers runs every configuration of the four quick
// studies under a clock twice, as a worker runs consecutive worlds on one
// buffer pool. A clock's world moves no data and its libraries keep no
// storage but the world's one scratch: after the first world the pool holds
// that scratch alone, the second world takes it (the pool is empty once its
// configuration has run) and draws nothing else, and it goes back when Run
// ends.
func TestClockWorldHoldsNoNumbers(t *testing.T) {
	s := autotune.QuickScale()
	for _, st := range []autotune.Study{autotune.CapitalCholesky(s), autotune.SlateCholesky(s), autotune.CandmcQR(s), autotune.SlateQR(s)} {
		t.Run(st.Name, func(t *testing.T) {
			for v := range st.Size() {
				pool := mpi.NewBufPool()
				for run := range 2 {
					w := mpi.NewWorld(st.WorldSize, sim.DefaultMachine(), 42)
					w.SetBufPool(pool)
					err := w.Run(func(c *mpi.Comm) {
						p, cc := critter.NewClock(c, critter.Options{Policy: critter.Online, Eps: 0.5})
						p.StartConfig(true)
						st.Run(p, cc, v)
						if c.Rank() == 0 && run == 1 && pool.Len() != 0 {
							t.Errorf("config %d: the pool holds %d buffers while the second world runs: it did not take the first one's scratch", v, pool.Len())
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := pool.Len(); got != 1 {
						t.Fatalf("config %d, world %d: the pool holds %d buffers after Run, want the world's scratch alone", v, run+1, got)
					}
				}
			}
		})
	}
}
