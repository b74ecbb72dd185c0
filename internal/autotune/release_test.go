package autotune

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"critter/internal/candmc"
	"critter/internal/capital"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/mpi"
	"critter/internal/slate"
)

// keptGrids returns st's Run without the grid's Release: the same library
// calls on the same configuration, every grid split on new handles.
func keptGrids(s Scale, st Study) func(p *critter.Profiler, cc *critter.Comm, v int) {
	switch st.Name {
	case "capital-cholesky":
		return func(p *critter.Profiler, cc *critter.Comm, v int) {
			ws := cc.Raw().Workspace()
			defer ws.Release(ws.Mark())
			capital.New(p, grid.New3D(cc, s.CapitalC), s.capitalConfig(v)).Run()
		}
	case "slate-cholesky":
		return func(p *critter.Profiler, cc *critter.Comm, v int) {
			cfg := s.slateCholConfig(v)
			a := slate.NewTileMatrix(grid.New2D(cc, cfg.PR, cfg.PC), cfg.N/cfg.NB, cfg.N/cfg.NB, cfg.NB)
			a.FillSymmetricPD()
			slate.Cholesky(p, a, cfg)
			a.Release()
		}
	case "candmc-qr":
		return func(p *critter.Profiler, cc *critter.Comm, v int) {
			ws := cc.Raw().Workspace()
			defer ws.Release(ws.Mark())
			cfg := s.candmcConfig(v)
			a := candmc.NewMatrix(grid.New2D(cc, cfg.PR, cfg.PC), cfg)
			a.FillGeneral(7)
			candmc.QR(p, a, cfg)
		}
	case "slate-qr":
		return func(p *critter.Profiler, cc *critter.Comm, v int) {
			ws := cc.Raw().Workspace()
			defer ws.Release(ws.Mark())
			cfg := s.slateQRConfig(v)
			a := slate.NewTileMatrix(grid.New2D(cc, cfg.PR, cfg.PC), cfg.M/cfg.NB, cfg.N/cfg.NB, cfg.NB)
			a.FillGeneral(3)
			slate.QR(p, a, cfg)
			a.Release()
		}
	}
	panic("no kept-grid twin for " + st.Name)
}

// TestGridReleaseChangesNothing: the built-in studies release their grids
// after every run, so within a sweep each configuration splits its grid on
// the handles the one before freed. A sweep of every quick study under each
// of its policies (eps 0.125, on a clock, every configuration, as runSweep
// runs a one-round plan) equals the same sweep whose grids are never
// released: rank 0's report and every rank's PathFreqs() and clock after
// every run, and the bytes of the sweep's encoded GlobalProfile(0). The
// grid shapes change within candmc's and slate-qr's spaces, so their fibers
// also come back to grids of another shape.
func TestGridReleaseChangesNothing(t *testing.T) {
	type outcome struct {
		reports []critter.Report
		freqs   [][]map[critter.Key]int64 // [rank][run]
		clocks  [][]float64               // [rank][run]
		encoded []byte
	}
	s := QuickScale()
	sweep := func(t *testing.T, st Study, opts critter.Options) outcome {
		t.Helper()
		out := outcome{freqs: make([][]map[critter.Key]int64, st.WorldSize), clocks: make([][]float64, st.WorldSize)}
		err := mpi.NewWorld(st.WorldSize, quickMachine(), 977).Run(func(c *mpi.Comm) {
			p, cc := critter.NewClock(c, opts)
			me := c.Rank()
			keep := func() {
				r := p.Report()
				if me == 0 {
					out.reports = append(out.reports, r)
				}
				out.freqs[me] = append(out.freqs[me], p.PathFreqs())
				out.clocks[me] = append(out.clocks[me], c.Clock())
			}
			for v := range st.Size() {
				ck := critter.ConfigKey(st.Name, v)
				p.StartConfigKeyed(st.ResetStats, ck)
				if opts.Policy == critter.APriori {
					p.SetPolicy(critter.Online)
					p.SetEps(0)
					c.Rekey(runKey(ck, runOffline, 1))
					st.Run(p, cc, v)
					keep()
					p.SetAprioriFromPath()
					p.SetPolicy(critter.APriori)
					p.SetEps(opts.Eps)
					p.StartConfig(false)
				}
				c.Rekey(runKey(ck, runSelective, 1))
				st.Run(p, cc, v)
				keep()
			}
			g := p.GlobalProfile(0)
			if me == 0 {
				data, err := g.Encode()
				if err != nil {
					panic(err)
				}
				out.encoded = data
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, st := range quickStudies() {
		kept := st
		kept.Run = keptGrids(s, st)
		for _, pol := range st.Policies {
			t.Run(fmt.Sprintf("%s/%s", st.Name, pol), func(t *testing.T) {
				opts := critter.Options{Policy: pol, Eps: 0.125}
				got, want := sweep(t, st, opts), sweep(t, kept, opts)
				for i := range want.reports {
					if got.reports[i] != want.reports[i] {
						t.Errorf("run %d: reports %+v released, %+v kept", i, got.reports[i], want.reports[i])
					}
				}
				for r := range want.freqs {
					for i := range want.freqs[r] {
						if !maps.Equal(got.freqs[r][i], want.freqs[r][i]) {
							t.Errorf("rank %d run %d: PathFreqs differ", r, i)
						}
						if got.clocks[r][i] != want.clocks[r][i] {
							t.Errorf("rank %d run %d: clock %v released, %v kept", r, i, got.clocks[r][i], want.clocks[r][i])
						}
					}
				}
				if !bytes.Equal(got.encoded, want.encoded) {
					t.Errorf("the sweeps' global profiles differ (%d and %d bytes)", len(got.encoded), len(want.encoded))
				}
			})
		}
	}
}
