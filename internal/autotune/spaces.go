package autotune

import (
	"critter/internal/candmc"
	"critter/internal/capital"
	"critter/internal/critter"
	"critter/internal/grid"
	"critter/internal/slate"
)

// Scale sizes the four case studies. The paper's experiments ran on 512 to
// 4096 KNL cores with matrices up to 131072; the simulated reproduction
// keeps the configuration-space *shapes* (15/20/15/63 points with the same
// parameter formulas) at laptop scale. Paper-scale counts per study appear
// in the comments of the study constructors.
type Scale struct {
	// CapitalN/CapitalC: CAPITAL factors an N x N matrix on a C^3 grid.
	CapitalN, CapitalC, CapitalBB int
	// SlateCholN and tile list; grid PRxPC fixed square.
	SlateCholN  int
	SlateCholNB []int
	SlateCholPR int
	SlateCholPC int
	// CANDMC: M x N, block sizes 2^j multiples, three grid shapes.
	CandmcM, CandmcN int
	CandmcB0         int // b = B0 * 2^(v%5)
	CandmcGrids      [3][2]int
	// SLATE QR: M x N, inner blocks, tile list, three grid shapes.
	SlateQRM, SlateQRN int
	SlateQRIB0         int // ib = IB0 * 2^(v%3)
	SlateQRNB          []int
	SlateQRGrids       [3][2]int
}

// DefaultScale targets 64 simulated ranks (32 for SLATE QR), a few seconds
// per full sweep.
func DefaultScale() Scale {
	return Scale{
		CapitalN: 256, CapitalC: 4, CapitalBB: 2,
		SlateCholN:  240,
		SlateCholNB: []int{12, 16, 20, 24, 30, 40, 48, 60, 80, 120},
		SlateCholPR: 8, SlateCholPC: 8,
		CandmcM: 1024, CandmcN: 256, CandmcB0: 2,
		CandmcGrids: [3][2]int{{8, 8}, {16, 4}, {32, 2}},
		SlateQRM:    240, SlateQRN: 120, SlateQRIB0: 2,
		SlateQRNB:    []int{12, 20, 24, 30, 40, 60, 120},
		SlateQRGrids: [3][2]int{{16, 2}, {8, 4}, {4, 8}},
	}
}

// QuickScale is a miniature space for tests: 8 ranks, tiny matrices.
func QuickScale() Scale {
	return Scale{
		CapitalN: 32, CapitalC: 2, CapitalBB: 2,
		SlateCholN:  48,
		SlateCholNB: []int{6, 8, 12, 16, 24, 48, 6, 8, 12, 16},
		SlateCholPR: 4, SlateCholPC: 2,
		CandmcM: 128, CandmcN: 64, CandmcB0: 1,
		CandmcGrids: [3][2]int{{4, 2}, {8, 1}, {2, 4}},
		SlateQRM:    48, SlateQRN: 24, SlateQRIB0: 1,
		SlateQRNB:    []int{4, 6, 8, 12, 24, 4, 6},
		SlateQRGrids: [3][2]int{{4, 2}, {2, 4}, {8, 1}},
	}
}

// CapitalCholesky is the paper's first case study: 15 configurations,
// block size b = b0 * 2^(v%5) and base-case strategy ceil((v+1)/5)
// (paper: 16384^2 matrix, 512 cores, b = 128*2^(v%5)). Kernel models are
// kept across configurations (recurring kernel signatures), so eager
// propagation is evaluated, as in Figure 4a.
func CapitalCholesky(s Scale) Study {
	world := s.CapitalC * s.CapitalC * s.CapitalC
	b0 := s.capitalB0()
	bs := make([]int, 5)
	for j := range bs {
		bs[j] = b0 << j
	}
	return Study{
		Name:       "capital-cholesky",
		Space:      NewSpace(IntsDim("b", bs...), IntsDim("strat", 1, 2, 3)),
		WorldSize:  world,
		ResetStats: false,
		Policies: []critter.Policy{
			critter.Conditional, critter.Eager, critter.Local,
			critter.Online, critter.APriori,
		},
		refs: new(refTable),
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			cfg := s.capitalConfig(v)
			if err := cfg.Validate(world); err != nil {
				panic(err)
			}
			ws := cc.Raw().Workspace()
			defer ws.Release(ws.Mark())
			g := grid.New3D(cc, s.CapitalC)
			ch := capital.New(p, g, cfg)
			ch.Run()
			g.Release()
		},
	}
}

// capitalB0 is CAPITAL's smallest block size: N/128, at least BB.
func (s Scale) capitalB0() int { return max(s.CapitalN/128, s.CapitalBB) }

// capitalConfig is CapitalCholesky's configuration v.
func (s Scale) capitalConfig(v int) capital.Config {
	return capital.Config{
		N:        s.CapitalN,
		B:        s.capitalB0() << (v % 5),
		BB:       s.CapitalBB,
		Strategy: 1 + v/5,
		C:        s.CapitalC,
	}
}

// SlateCholesky is the paper's second case study: 20 configurations,
// lookahead depth v%2 and tile size NB[v/2] (paper: 65536^2 matrix, 1024
// cores, tiles 256+64*floor(v/2)).
func SlateCholesky(s Scale) Study {
	world := s.SlateCholPR * s.SlateCholPC
	return Study{
		Name:       "slate-cholesky",
		Space:      NewSpace(IntsDim("la", 0, 1), IntsDim("nb", s.SlateCholNB...)),
		WorldSize:  world,
		ResetStats: true,
		Policies: []critter.Policy{
			critter.Conditional, critter.Local, critter.Online, critter.APriori,
		},
		refs: new(refTable),
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			cfg := s.slateCholConfig(v)
			if err := cfg.Validate(world); err != nil {
				panic(err)
			}
			g := grid.New2D(cc, cfg.PR, cfg.PC)
			a := slate.NewTileMatrix(g, cfg.N/cfg.NB, cfg.N/cfg.NB, cfg.NB)
			a.FillSymmetricPD()
			slate.Cholesky(p, a, cfg)
			a.Release()
			g.Release()
		},
	}
}

// slateCholConfig is SlateCholesky's configuration v.
func (s Scale) slateCholConfig(v int) slate.CholConfig {
	return slate.CholConfig{
		N:         s.SlateCholN,
		NB:        s.SlateCholNB[v/2],
		Lookahead: v % 2,
		PR:        s.SlateCholPR,
		PC:        s.SlateCholPC,
	}
}

// CandmcQR is the paper's third case study: 15 configurations, block size
// b = b0 * 2^(v%5) and grid shapes by v/5 (paper: 131072x8192 matrix, 4096
// cores, b = 8*2^(v%5), grids 64*2^j x 64/2^j).
func CandmcQR(s Scale) Study {
	world := s.CandmcGrids[0][0] * s.CandmcGrids[0][1]
	bs := make([]int, 5)
	for j := range bs {
		bs[j] = s.CandmcB0 << j
	}
	return Study{
		Name:       "candmc-qr",
		Space:      NewSpace(IntsDim("b", bs...), GridsDim("grid", s.CandmcGrids[:]...)),
		WorldSize:  world,
		ResetStats: true,
		Policies: []critter.Policy{
			critter.Conditional, critter.Local, critter.Online, critter.APriori,
		},
		refs: new(refTable),
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			cfg := s.candmcConfig(v)
			if err := cfg.Validate(world); err != nil {
				panic(err)
			}
			ws := cc.Raw().Workspace()
			defer ws.Release(ws.Mark())
			g := grid.New2D(cc, cfg.PR, cfg.PC)
			a := candmc.NewMatrix(g, cfg)
			a.FillGeneral(7)
			candmc.QR(p, a, cfg)
			g.Release()
		},
	}
}

// candmcConfig is CandmcQR's configuration v.
func (s Scale) candmcConfig(v int) candmc.Config {
	g := s.CandmcGrids[v/5]
	return candmc.Config{
		M: s.CandmcM, N: s.CandmcN,
		B:  s.CandmcB0 << (v % 5),
		PR: g[0], PC: g[1],
		Panel: candmc.PanelTSQR,
	}
}

// SlateQR is the paper's fourth case study: 63 configurations, inner block
// ib = ib0 * 2^(v%3), tile size NB[(v/3)%7], grid shapes by v/21 (paper:
// 65536x4096 matrix, 256 cores, w = 8*2^(v%3), panel 256+64*(floor(v/3)%7),
// grids 64/2^j x 4*2^j).
func SlateQR(s Scale) Study {
	world := s.SlateQRGrids[0][0] * s.SlateQRGrids[0][1]
	ibs := make([]int, 3)
	for j := range ibs {
		ibs[j] = s.SlateQRIB0 << j
	}
	return Study{
		Name: "slate-qr",
		Space: NewSpace(IntsDim("ib", ibs...), IntsDim("nb", s.SlateQRNB...),
			GridsDim("grid", s.SlateQRGrids[:]...)),
		WorldSize:  world,
		ResetStats: true,
		Policies: []critter.Policy{
			critter.Conditional, critter.Local, critter.Online, critter.APriori,
		},
		refs: new(refTable),
		Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
			cfg := s.slateQRConfig(v)
			if err := cfg.Validate(world); err != nil {
				panic(err)
			}
			ws := cc.Raw().Workspace()
			defer ws.Release(ws.Mark())
			g := grid.New2D(cc, cfg.PR, cfg.PC)
			a := slate.NewTileMatrix(g, cfg.M/cfg.NB, cfg.N/cfg.NB, cfg.NB)
			a.FillGeneral(3)
			slate.QR(p, a, cfg)
			a.Release()
			g.Release()
		},
	}
}

// slateQRConfig is SlateQR's configuration v.
func (s Scale) slateQRConfig(v int) slate.QRConfig {
	g := s.SlateQRGrids[v/21]
	return slate.QRConfig{
		M: s.SlateQRM, N: s.SlateQRN,
		NB: s.SlateQRNB[(v/3)%7],
		IB: s.SlateQRIB0 << (v % 3),
		PR: g[0], PC: g[1],
	}
}
