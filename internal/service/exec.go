package service

// The one execution path for a resolved job spec, called by the
// scheduler's runners (scheduler.go). A spec produces the identical
// envelope whenever it runs — the property dedup and the memo lean on.

import (
	"context"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/obs"
	"critter/internal/sim"
)

// executeSpec runs one resolved job to completion on workers whose arenas
// come from the caller's set: it hands onSweep, when non-nil, a sweep event
// for every finished sweep in completion order, and returns the result
// envelope around the grid the Tuner returns (failed cells zeroed), the
// merged learned profile (partial grids included — a canceled run's
// completed sweeps are still valid statistics), and the sweep errors joined
// in grid order. tracer, when non-nil, receives the run's span events
// (sweep/config/strategy/round); tracing is observational only — the
// envelope is byte-identical either way.
func executeSpec(ctx context.Context, spec *jobSpec, machine sim.Machine, workers int, arenas *autotune.Arenas, prior *critter.Profile, tracer obs.Tracer, onSweep func(Event)) (*autotune.Envelope, *critter.Profile, error) {
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
	var emit func(autotune.SweepResult, error)
	if onSweep != nil {
		emit = func(sw autotune.SweepResult, err error) {
			ev := Event{
				Type:   "sweep",
				Policy: sw.Policy.String(), Eps: sw.Eps,
				Executed: sw.Executed, Skipped: sw.Skipped,
				Memoized: sw.KernelsMemoized,
			}
			if err != nil {
				ev.Error = err.Error()
			}
			onSweep(ev)
		}
	}
	res, err := arenas.Run(ctx, tn, emit)

	return tn.Envelope(spec.scaleName, res), learnedProfile(res), err
}

// learnedProfile is res's merged learned profile for the store, which takes
// ownership of it. A one-sweep grid hands over its sweep's own profile
// rather than MergedProfile's copy of it: runJob encodes the envelope that
// shares it before the merge and then drops the envelope, so nothing reads
// the profile once ProfileStore.Merge builds in it.
func learnedProfile(res *autotune.Result) *critter.Profile {
	if res != nil && len(res.Sweeps) == 1 && len(res.Sweeps[0]) == 1 {
		return res.Sweeps[0][0].Profile
	}
	return autotune.MergedProfile(res)
}
