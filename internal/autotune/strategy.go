package autotune

// Search strategies: the policy deciding WHICH configurations of a space a
// sweep evaluates (and at what tolerance), as opposed to the profiler's
// Policy, which decides HOW each configuration's kernels are selectively
// executed. The paper's evaluation is the Exhaustive strategy; RandomSample
// and SuccessiveHalving trade coverage for budget, in the spirit of the
// Bayesian and transfer-learned samplers of related autotuning work.

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"critter/internal/sim"
)

// Round is one batch of configurations a strategy asks the runner to
// evaluate. Eps is the confidence tolerance for the batch's selective
// executions; rung-based strategies loosen it on early rounds.
type Round struct {
	Configs []int
	Eps     float64
}

// Plan is one sweep's iteration of a Strategy. Next returns the next round
// given the results of the previous one (nil on the first call); returning
// ok == false (or an empty round) ends the sweep. A first round that is
// empty fails the sweep with an error naming the strategy: a sweep that
// evaluates nothing has no selection to report.
//
// A Plan may be stateful: the runner creates one per sweep, on rank 0 of the
// sweep's simulated world, and hands every other rank each round it returns.
// Every rank reads the round's Configs until the round's last configuration
// has run, so a plan may reuse that slice only from its next Next call on. A
// plan that is deterministic in its inputs (the seed, the space and the
// ConfigResults it receives) makes the sweep reproducible.
type Plan interface {
	Next(prev []ConfigResult) (Round, bool)
}

// Strategy plans which configurations a sweep evaluates. Implementations
// must be immutable values: one Strategy is shared by every concurrent
// sweep of a Tuner, and Plan is called once per sweep, on the sweep's
// rank 0.
type Strategy interface {
	// Name identifies the strategy in flags and serialized results.
	Name() string
	// Plan starts one sweep over the space at target tolerance eps.
	Plan(sp Space, eps float64) Plan
}

// oneShot is a single-round plan.
type oneShot struct {
	round Round
	done  bool
}

func (p *oneShot) Next(prev []ConfigResult) (Round, bool) {
	if p.done {
		return Round{}, false
	}
	p.done = true
	return p.round, true
}

// Exhaustive evaluates every configuration in index order at the sweep's
// tolerance — the paper's protocol, and the default strategy.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Plan implements Strategy.
func (Exhaustive) Plan(sp Space, eps float64) Plan {
	configs := make([]int, sp.Size())
	for i := range configs {
		configs[i] = i
	}
	return &oneShot{round: Round{Configs: configs, Eps: eps}}
}

// RandomSample evaluates N configurations drawn uniformly without
// replacement from a deterministic stream seeded with Seed, for budgeted
// tuning of spaces too large to sweep. N >= the space size degenerates to
// Exhaustive order-shuffled.
type RandomSample struct {
	N    int
	Seed uint64
}

// Name implements Strategy.
func (r RandomSample) Name() string { return fmt.Sprintf("random:%d", r.N) }

// Plan implements Strategy. The sample depends only on (Seed, space size),
// so every (policy, eps) cell of a tuning grid evaluates the same subset
// and stays comparable across cells.
func (r RandomSample) Plan(sp Space, eps float64) Plan {
	size := sp.Size()
	n := r.N
	if n <= 0 || n > size {
		n = size
	}
	// Partial Fisher-Yates: the first n entries of a seeded permutation.
	perm := make([]int, size)
	for i := range perm {
		perm[i] = i
	}
	rng := sim.NewRNG(sim.Mix(r.Seed, uint64(size), 0x73616d706c65)) // "sample"
	for i := 0; i < n; i++ {
		j := i + rng.Intn(size-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &oneShot{round: Round{Configs: perm[:n], Eps: eps}}
}

// SuccessiveHalving prunes the space across tolerance rungs: the first rung
// evaluates every configuration at a loosened tolerance (cheap, because
// loose tolerances skip most kernels), then each following rung keeps the
// better half of the survivors by Critter's predicted execution time and
// halves the tolerance, until the final rung reaches the sweep's target
// tolerance with at most two configurations left. Total evaluations are at
// most twice the space size, but almost all of them run at loose
// tolerances.
type SuccessiveHalving struct{}

// Name implements Strategy.
func (SuccessiveHalving) Name() string { return "halving" }

// Plan implements Strategy.
func (SuccessiveHalving) Plan(sp Space, eps float64) Plan {
	// Rung survivor counts: size, ceil(size/2), ... down to <= 2.
	rungs := 1
	for n := sp.Size(); n > 2; n = (n + 1) / 2 {
		rungs++
	}
	configs := make([]int, sp.Size())
	for i := range configs {
		configs[i] = i
	}
	return &halvingPlan{rungs: rungs, targetEps: eps, survivors: configs}
}

// halvingPlan is the per-sweep state of SuccessiveHalving.
type halvingPlan struct {
	rungs     int
	rung      int
	targetEps float64
	survivors []int
}

func (p *halvingPlan) Next(prev []ConfigResult) (Round, bool) {
	if p.rung > 0 {
		if p.rung >= p.rungs {
			return Round{}, false
		}
		p.survivors = prune(prev, (len(p.survivors)+1)/2)
	}
	eps := p.targetEps
	if eps > 0 {
		// Loosen by 2x per remaining rung, capped at the maximal
		// meaningful tolerance of 1.
		if eps = eps * float64(int64(1)<<uint(p.rungs-1-p.rung)); eps > 1 {
			eps = 1
		}
	}
	p.rung++
	return Round{Configs: p.survivors, Eps: eps}, true
}

// prune keeps the n results with the smallest predicted execution times,
// breaking ties by configuration index, and returns their config indices in
// ascending order (deterministic — the (Predicted, Config) key is a total
// order over a round's results, so the unstable sort cannot leak the input
// order).
func prune(results []ConfigResult, n int) []int {
	sorted := make([]ConfigResult, len(results))
	copy(sorted, results)
	slices.SortFunc(sorted, func(a, b ConfigResult) int {
		if c := cmp.Compare(a.Selective.Predicted, b.Selective.Predicted); c != 0 {
			return c
		}
		return cmp.Compare(a.Config, b.Config)
	})
	if n > len(sorted) {
		n = len(sorted)
	}
	keep := make([]int, n)
	for i := 0; i < n; i++ {
		keep[i] = sorted[i].Config
	}
	// Ascending config order keeps the evaluation order stable.
	slices.Sort(keep)
	return keep
}

// StrategyNames documents the flag grammar accepted by ParseStrategy. Every
// grammar head ParseStrategy accepts must appear here (pinned by
// TestStrategyNamesComplete, which also round-trips each strategy's Name
// back through the parser).
const StrategyNames = "exhaustive, random:N, halving, surrogate:N"

// ParseStrategy resolves a strategy flag spec: "exhaustive", "random:N"
// (N sampled configurations, seeded with seed), "halving", or
// "surrogate:N" (model-guided search over an evaluation budget of N,
// seeded with seed).
func ParseStrategy(spec string, seed uint64) (Strategy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "exhaustive", "halving":
		if hasArg {
			return nil, fmt.Errorf("autotune: strategy %s takes no argument, got %q", name, spec)
		}
		if name == "halving" {
			return SuccessiveHalving{}, nil
		}
		return Exhaustive{}, nil
	case "random", "surrogate":
		n, err := strconv.Atoi(arg)
		if !hasArg || err != nil || n < 1 {
			return nil, fmt.Errorf("autotune: strategy %s wants a positive number of configurations to evaluate, e.g. %s:8, got %q", name, name, spec)
		}
		if name == "surrogate" {
			return Surrogate{N: n, Seed: seed}, nil
		}
		return RandomSample{N: n, Seed: seed}, nil
	}
	return nil, fmt.Errorf("autotune: unknown strategy %q (want %s)", spec, StrategyNames)
}
