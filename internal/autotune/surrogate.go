package autotune

// Model-guided search: the Surrogate strategy fits a deterministic
// ridge-regression surrogate (internal/surrogate) on the profiler's
// predicted times — cheap, low-fidelity observations the sweep produces
// anyway — and proposes the next round of configurations by expected
// improvement. This is the repo's rung past exhaustive/random/halving, in
// the spirit of the Bayesian autotuners of the related literature. Like
// them it runs expected improvement with a fixed exploration margin
// (defaultXi), and a plan sees nothing but the ConfigResults its sweep
// hands it.

import (
	"fmt"
	"math"
	"slices"

	"critter/internal/sim"
	"critter/internal/surrogate"
)

// Surrogate evaluates up to N configurations chosen by a regression
// surrogate with expected-improvement acquisition: a seeded initial design,
// then one proposal per round, each round refitting the model on every
// prediction observed so far. N >= the space size degenerates to an
// exhaustive sweep in model-guided order.
//
// All evaluations run at the sweep's target tolerance — the surrogate's
// cheap fidelity is the profiler's predicted time, not a loosened
// tolerance — so the observations it learns from are exactly the
// Selective.Predicted values the sweep reports.
type Surrogate struct {
	// N is the total evaluation budget (clamped to the space size).
	N int
	// Seed seeds the initial design's sampling stream.
	Seed uint64
}

// Name implements Strategy.
func (s Surrogate) Name() string { return fmt.Sprintf("surrogate:%d", s.N) }

// Plan implements Strategy. The plan depends only on (Seed, space, eps) and
// the ConfigResults it observes, so a sweep's rounds are a function of what
// it has run.
func (s Surrogate) Plan(sp Space, eps float64) Plan {
	size := sp.Size()
	n := s.N
	if n <= 0 || n > size {
		n = size
	}
	// The initial design: a seeded sample large enough to anchor the first
	// fit (one point per dimension plus intercept headroom), never more
	// than the budget.
	init := min(len(sp.Dims)+2, n)
	perm := make([]int, size)
	for i := range perm {
		perm[i] = i
	}
	rng := sim.NewRNG(sim.Mix(s.Seed, uint64(size), 0x7375727267)) // "surrg"
	for i := 0; i < init; i++ {
		j := i + rng.Intn(size-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	first := append([]int(nil), perm[:init]...)
	slices.Sort(first)
	sizes := make([]int, len(sp.Dims))
	for i, d := range sp.Dims {
		sizes[i] = d.Size()
	}
	p := &surrogatePlan{
		sp:    sp,
		eps:   eps,
		n:     n,
		first: first,
		model: surrogate.New(sizes, 0),
		seen:  make([]bool, size),
	}
	for _, v := range first {
		p.seen[v] = true
	}
	p.proposed = len(first)
	return p
}

// defaultXi is the expected-improvement exploration margin in log-time
// units.
const defaultXi = 0.01

// surrogatePlan is the per-sweep state of Surrogate, held by the sweep's
// rank 0; all of its decisions are pure functions of what it observes.
type surrogatePlan struct {
	sp       Space
	eps      float64
	n        int
	first    []int
	started  bool
	proposed int
	seen     []bool
	model    *surrogate.Model
	obs      []surrogate.Obs
}

// Next implements Plan.
func (p *surrogatePlan) Next(prev []ConfigResult) (Round, bool) {
	// Absorb the previous round's predictions as observations, in
	// evaluation order.
	for _, cr := range prev {
		y := cr.Selective.Predicted
		if y <= 0 {
			// Degenerate prediction (failed or zero-cost config): observe
			// a floor instead of -Inf so one bad cell cannot poison the
			// fit.
			y = math.SmallestNonzeroFloat64
		}
		p.obs = append(p.obs, surrogate.Obs{Coords: p.sp.Decode(cr.Config), Y: math.Log(y)})
	}
	if !p.started {
		p.started = true
		return Round{Configs: p.first, Eps: p.eps}, true
	}
	if p.proposed >= p.n {
		return Round{}, false
	}
	p.proposed++
	return Round{Configs: []int{p.propose()}, Eps: p.eps}, true
}

// propose fits the surrogate on everything observed so far and returns the
// unevaluated configuration with the highest expected improvement, ties
// broken by lower predicted mean then lower configuration index.
func (p *surrogatePlan) propose() int {
	best := math.Inf(1)
	for _, o := range p.obs {
		if o.Y < best {
			best = o.Y
		}
	}
	fitted := p.model.Fit(p.obs) == nil && p.model.Fitted()
	pick, pickEI, pickMean := -1, 0.0, 0.0
	for v := 0; v < p.sp.Size(); v++ {
		if p.seen[v] {
			continue
		}
		var ei, mean float64
		if fitted {
			var std float64
			mean, std = p.model.Predict(p.sp.Decode(v))
			ei = surrogate.ExpectedImprovement(mean, std, best, defaultXi)
		}
		// Ascending v: a tie on both keys keeps the lower index.
		if pick < 0 || ei > pickEI || (ei == pickEI && mean < pickMean) {
			pick, pickEI, pickMean = v, ei, mean
		}
	}
	p.seen[pick] = true
	return pick
}
