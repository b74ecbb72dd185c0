package autotune

// Warm-started tuning: a Strategy decorator that seeds every sweep's world
// with a kernel profile exported by an earlier run. This is the
// transfer-learning direction of the related autotuning literature (reuse
// statistics from prior tuning sessions) expressed in this codebase's
// terms: the prior's kernel models let signatures skip after a single
// validation execution, and — with Tuner.Extrapolate — its fitted family
// models skip even never-before-seen signatures, which is what transfers
// across problem scales.

import "critter/internal/critter"

// warmStart decorates an inner Strategy with a prior profile. Planning
// delegates to the inner strategy untouched; only the sweep's profiler
// seeding changes, through the prior Tuner.build resolves.
type warmStart struct {
	inner Strategy
	prior *critter.Profile
}

// WarmStart returns inner decorated with a warm-start prior for every
// sweep it plans. A nil inner means Exhaustive; a nil prior returns inner
// unchanged (cold), so WarmStart(s, loadOrNil()) composes safely.
func WarmStart(inner Strategy, prior *critter.Profile) Strategy {
	if inner == nil {
		inner = Exhaustive{}
	}
	if prior == nil {
		return inner
	}
	return warmStart{inner: inner, prior: prior}
}

// Name implements Strategy: the inner name tagged as warm-started, so
// serialized results distinguish warm from cold runs.
func (w warmStart) Name() string { return "warm:" + w.inner.Name() }

// Plan implements Strategy by delegating to the inner strategy.
func (w warmStart) Plan(sp Space, eps float64) Plan { return w.inner.Plan(sp, eps) }
