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
// then Batch proposals per round, each round refitting the model on every
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
	// Batch is the number of configurations proposed per model round; 0
	// means 1 (pure sequential expected improvement).
	Batch int
}

// Name implements Strategy.
func (s Surrogate) Name() string {
	if s.Batch > 0 {
		return fmt.Sprintf("surrogate:%d:%d", s.N, s.Batch)
	}
	return fmt.Sprintf("surrogate:%d", s.N)
}

// Plan implements Strategy. The plan depends only on (Seed, space, eps) and
// the ConfigResults it observes, so a sweep's rounds are a function of what
// it has run.
func (s Surrogate) Plan(sp Space, eps float64) Plan {
	size := sp.Size()
	n := s.N
	if n <= 0 || n > size {
		n = size
	}
	batch := s.Batch
	if batch <= 0 {
		batch = 1
	}
	if batch > n {
		batch = n
	}
	// The initial design: a seeded sample large enough to anchor the first
	// fit (one point per dimension plus intercept headroom), at least one
	// batch, never more than the budget.
	init := len(sp.Dims) + 2
	if init < batch {
		init = batch
	}
	if init > n {
		init = n
	}
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
		batch: batch,
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
	batch    int
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
	k := p.n - p.proposed
	if k <= 0 {
		return Round{}, false
	}
	if k > p.batch {
		k = p.batch
	}
	next := p.propose(k)
	if len(next) == 0 {
		return Round{}, false
	}
	p.proposed += len(next)
	return Round{Configs: next, Eps: p.eps}, true
}

// propose fits the surrogate on everything observed so far and returns the
// k unevaluated configurations with the highest expected improvement,
// ties broken by lower predicted mean then lower configuration index, in
// ascending index order for a stable evaluation order.
func (p *surrogatePlan) propose(k int) []int {
	best := math.Inf(1)
	for _, o := range p.obs {
		if o.Y < best {
			best = o.Y
		}
	}
	fitted := p.model.Fit(p.obs) == nil && p.model.Fitted()
	type cand struct {
		v    int
		ei   float64
		mean float64
	}
	cands := make([]cand, 0, p.sp.Size())
	for v := 0; v < p.sp.Size(); v++ {
		if p.seen[v] {
			continue
		}
		c := cand{v: v}
		if fitted {
			mean, std := p.model.Predict(p.sp.Decode(v))
			c.mean = mean
			c.ei = surrogate.ExpectedImprovement(mean, std, best, defaultXi)
		}
		cands = append(cands, c)
	}
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.ei > b.ei:
			return -1
		case a.ei < b.ei:
			return 1
		case a.mean < b.mean:
			return -1
		case a.mean > b.mean:
			return 1
		default:
			return a.v - b.v
		}
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].v
		p.seen[cands[i].v] = true
	}
	slices.Sort(out)
	return out
}
