package service

// The one execution path for a resolved job spec. Local runners
// (scheduler.go) and remote workers (worker.go) both call executeSpec, so
// a job produces the identical envelope wherever it runs — the property
// the dedup and lease machinery lean on.

import (
	"context"
	"errors"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/obs"
	"critter/internal/sim"
)

// executeSpec runs one resolved job to completion: it streams the tuning
// grid (sweeps arrive in completion order and are placed back into their
// (policy, eps) cells, rebuilding exactly the grid Tuner.Run would have
// returned, failed cells zeroed), invokes onSweep for every finished sweep
// in completion order, and returns the result envelope, the merged learned
// profile (partial grids included — a canceled run's completed sweeps are
// still valid statistics), and the joined sweep errors. tracer, when
// non-nil, receives the run's span events (sweep/config/strategy/round);
// tracing is observational only — the envelope is byte-identical either
// way. The sweeps run on arenas taken from, and given back to, the caller's
// set.
func executeSpec(ctx context.Context, spec *jobSpec, machine sim.Machine, workers int, arenas *autotune.Arenas, prior *critter.Profile, tracer obs.Tracer, onSweep func(sw autotune.SweepResult, err error)) (*autotune.Envelope, *critter.Profile, error) {
	study := spec.workload.Build(spec.scale)
	machine.NoiseSigma = spec.noise
	tn := autotune.Tuner{
		Study:       study,
		EpsList:     spec.eps,
		Machine:     machine,
		Seed:        spec.seed,
		Policies:    spec.policies,
		Strategy:    spec.strategy,
		Prior:       prior,
		Extrapolate: spec.extrapolate,
		Workers:     workers,
		Tracer:      tracer,
	}

	res := &autotune.Result{
		Study:    study.Name,
		Strategy: spec.strategy.Name(),
		Policies: spec.policies,
		EpsList:  spec.eps,
		Sweeps:   make([][]autotune.SweepResult, len(spec.policies)),
	}
	filled := make([][]bool, len(spec.policies))
	for pi := range res.Sweeps {
		res.Sweeps[pi] = make([]autotune.SweepResult, len(spec.eps))
		filled[pi] = make([]bool, len(spec.eps))
	}
	var errs []error
	for sw, err := range arenas.Stream(ctx, tn) {
		if err == nil {
			placeSweep(res, filled, sw)
		} else {
			errs = append(errs, err)
		}
		if onSweep != nil {
			onSweep(sw, err)
		}
	}

	merged := autotune.MergedProfile(res)
	env := &autotune.Envelope{
		SchemaVersion: autotune.ResultSchemaVersion,
		Study:         study.Name,
		Scale:         spec.scaleName,
		Seed:          spec.seed,
		NoiseSigma:    spec.noise,
		Strategy:      spec.strategy.Name(),
		Profiles:      autotune.ProfileSummaries(res),
		Result:        res,
	}
	if prior != nil {
		sum := autotune.Summarize("", 0, prior)
		env.Prior = &sum
	}
	return env, merged, errors.Join(errs...)
}
