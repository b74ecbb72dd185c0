package autotune

// The Tuner is the central control flow of the autotuning harness: it
// composes a Study (the space and its runner), a Strategy (which
// configurations to evaluate, at what tolerance), and the concurrent sweep
// executor, under caller-controlled cancellation.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/stats"
)

// Tuner drives sweeps of one study over policies and tolerances, each sweep
// enumerated by a search Strategy, on a bounded worker pool.
type Tuner struct {
	// Study is the tuning problem: configuration space plus runner.
	Study Study
	// EpsList is the grid of target confidence tolerances.
	EpsList []float64
	// Machine is the simulated machine model.
	Machine sim.Machine
	// Seed is the noise seed. Every execution of a configuration draws from
	// streams keyed by (Seed, rank, study, configuration, run kind, round),
	// never by what its world ran before.
	Seed uint64
	// Policies overrides Study.Policies when non-nil.
	Policies []critter.Policy
	// Strategy picks the configurations each sweep evaluates; nil means
	// Exhaustive, which reproduces the paper's protocol bit-for-bit.
	Strategy Strategy

	// Prior warm-starts every sweep's selective profiler from a profile
	// exported by an earlier run (SweepResult.Profile, critter-tune
	// -profile-out): kernels predicted by the prior skip sooner, shrinking
	// the executed-kernel count. The reference (full) executions are never
	// warm-started: they are a function of (Study, Machine, Seed) alone,
	// which is why a warm run on a Study value reuses the reports of a cold
	// run on it.
	// Takes precedence over a WarmStart strategy's prior.
	Prior *critter.Profile
	// Extrapolate enables family-model extrapolation (Section VIII's
	// line-fitting extension) in every sweep's selective profiler. This is
	// how warm starts transfer across scales: a prior's fitted families
	// predict kernel sizes never seen before.
	Extrapolate bool

	// Workers bounds how many sweeps are simulated concurrently. Zero (or
	// negative) means runtime.GOMAXPROCS(0); 1 recovers the sequential
	// path. Every worker count yields bit-identical results: each sweep
	// runs in its own world, and the one thing sweeps share — the Study
	// value's table of reference reports, which every tuner run on that
	// value at the same Machine and Seed also shares — holds values that do
	// not depend on who computed them.
	Workers int
	// Progress, when non-nil, is invoked after each sweep completes (or is
	// abandoned to cancellation). Invocations are serialized; the callback
	// must not call back into the tuner.
	Progress func(Progress)

	// Tracer, when non-nil, receives span events from every sweep: sweep
	// begin/end, strategy planning rounds, per-configuration spans, and
	// the profiler's kernel-propagation rounds (rank 0 of each world).
	// Events within one sweep arrive in deterministic order; events of
	// concurrently running sweeps interleave. Tracing is observational
	// only — results and envelopes are byte-identical with it on or off —
	// and the nil default costs one branch per potential event.
	Tracer obs.Tracer
}

// strategy resolves the search strategy, defaulting to Exhaustive.
func (t Tuner) strategy() Strategy {
	if t.Strategy == nil {
		return Exhaustive{}
	}
	return t.Strategy
}

// prior resolves the warm-start prior every sweep is seeded with: the
// explicit Prior, else a WarmStart strategy's, else none.
func (t Tuner) prior() *critter.Profile {
	if w, ok := t.Strategy.(warmStart); ok && t.Prior == nil {
		return w.prior
	}
	return t.Prior
}

// policies resolves the tuner's policy list: the explicit override, else
// the study's own list, else (when the resolved list is empty) the paper's
// four-policy default.
func (t Tuner) policies() []critter.Policy {
	policies := t.Policies
	if policies == nil {
		policies = t.Study.Policies
	}
	if len(policies) == 0 {
		policies = []critter.Policy{critter.Conditional, critter.Local, critter.Online, critter.APriori}
	}
	return policies
}

// build preallocates the result grid and one sweep job per (policy, eps)
// cell, each pointing at its result slot so workers never contend, and hands
// all of them the study's table of reference reports for the tuner's machine
// and seed, a slot per configuration (Study.references).
func (t Tuner) build(sink *progressSink) (*Result, []sweepJob) {
	policies := t.policies()
	strat := t.strategy()
	prior := t.prior()
	refs := t.Study.references(t.Machine, t.Seed)
	res := &Result{
		Study:    t.Study.Name,
		Strategy: strat.Name(),
		Policies: policies,
		EpsList:  t.EpsList,
		Sweeps:   make([][]SweepResult, len(policies)),
	}
	jobs := make([]sweepJob, 0, len(policies)*len(t.EpsList))
	for pi, pol := range policies {
		res.Sweeps[pi] = make([]SweepResult, len(t.EpsList))
		for ei, eps := range t.EpsList {
			jobs = append(jobs, sweepJob{
				study:       t.Study,
				strat:       strat,
				pol:         pol,
				eps:         eps,
				machine:     t.Machine,
				seed:        t.Seed,
				prior:       prior,
				extrapolate: t.Extrapolate,
				tracer:      t.Tracer,
				refs:        refs,
				out:         &res.Sweeps[pi][ei],
				sink:        sink,
			})
		}
	}
	sink.grow(len(jobs))
	return res, jobs
}

// Run executes every (policy, eps) sweep of the tuner, each in a fresh
// world, dispatching them to a pool of Workers goroutines.
// Result ordering is fixed by the policy and tolerance lists, not
// completion order, and the values are identical to a sequential
// (Workers: 1) run.
//
// Cancelling ctx stops the grid promptly: running sweeps abandon their
// world at the next configuration boundary and pending sweeps are skipped.
// The result grid is always returned — failed or cancelled cells are
// zeroed — alongside the per-sweep errors joined in grid order; on
// cancellation the error satisfies errors.Is(err, ctx.Err()). A study that
// fails Study.Validate fails every sweep.
func (t Tuner) Run(ctx context.Context) (*Result, error) {
	return t.run(ctx, nil, nil)
}

// Stream runs the tuner like Run but yields each sweep as it completes, in
// completion order, for serving and streaming consumers. The SweepResult's
// Policy and Eps fields identify the grid cell; a failed or skipped sweep
// yields a zeroed result (with Policy and Eps still set) and its error.
// Exactly one (result, error) pair is yielded per grid cell unless the
// consumer breaks early, which cancels the remaining sweeps before the
// iterator returns; no goroutines outlive the loop.
func (t Tuner) Stream(ctx context.Context) iter.Seq2[SweepResult, error] {
	return func(yield func(SweepResult, error) bool) {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type item struct {
			sweep SweepResult
			err   error
		}
		// Buffered to the grid's size: sweep completions never block on a
		// consumer that has stopped reading.
		out := make(chan item, len(t.policies())*len(t.EpsList))
		go func() {
			defer close(out)
			t.run(ctx, nil, func(sw SweepResult, err error) { out <- item{sw, err} })
		}()
		stopped := false
		for it := range out {
			if !stopped && !yield(it.sweep, it.err) {
				stopped = true
				cancel() // stop the pool, then drain its completions
			}
		}
	}
}

// run is the one execution of a tuner's grid, behind Run, Stream and
// Arenas.Run: it builds the grid, runs its sweeps on workers whose arenas
// come from arenas (nil gives each worker a fresh one), hands emit, when
// non-nil, each finished sweep in completion order, and returns the grid
// with the per-sweep errors joined in grid order.
func (t Tuner) run(ctx context.Context, arenas *Arenas, emit func(SweepResult, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res, jobs := t.build(&progressSink{fn: t.Progress, emit: emit})
	return res, errors.Join(runJobs(ctx, jobs, t.Workers, arenas)...)
}

// RunTuners executes several tuners through one shared bounded worker pool
// (workers; 0 or negative means GOMAXPROCS), so a wide study's sweeps
// backfill the pool while a narrow one drains. Per-tuner Workers and
// Progress fields are ignored; progress, when non-nil, receives every sweep
// completion with pool-wide Done/Total counts. Both returned slices are
// aligned with tuners: every result grid is non-nil (failed cells zeroed),
// and errs[i] joins tuner i's per-sweep failures.
func RunTuners(ctx context.Context, tuners []Tuner, workers int, progress func(Progress)) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sink := &progressSink{fn: progress}
	results := make([]*Result, len(tuners))
	var all []sweepJob
	spans := make([][2]int, len(tuners))
	for i, t := range tuners {
		start := len(all)
		res, jobs := t.build(sink)
		results[i] = res
		all = append(all, jobs...)
		spans[i] = [2]int{start, len(all)}
	}
	jobErrs := runJobs(ctx, all, workers, nil)
	errs := make([]error, len(tuners))
	for i := range tuners {
		errs[i] = errors.Join(jobErrs[spans[i][0]:spans[i][1]]...)
	}
	return results, errs
}

// cancelError carries a context error through the simulated world's abort
// machinery: the first rank to observe cancellation panics with it, the
// world unwinds every other rank, and the sweep's error unwraps to the
// context error (so errors.Is(err, context.Canceled) holds).
type cancelError struct{ err error }

func (c cancelError) Error() string { return "sweep canceled: " + c.err.Error() }
func (c cancelError) Unwrap() error { return c.err }

// The kinds of execution a configuration goes through. Together with the
// configuration's key and the strategy round they name a run, and the name
// is what seeds its noise (runKey).
const (
	runReference uint64 = iota
	runOffline
	runSelective
)

// runKey names one execution of a configuration for mpi.Comm.Rekey. The
// reference is always round 0: it is one fact per (study, machine, seed,
// configuration), whichever sweep, strategy or rung asks for it. Offline and
// selective runs carry the strategy's round number, so a rung strategy that
// evaluates a configuration again does not replay its earlier draws.
func runKey(ck, kind uint64, round int) uint64 {
	return sim.Mix(ck, kind, uint64(round))
}

// reference is the only full execution in the repository: configuration v
// under a cold profiler that skips nothing, on streams keyed by the
// configuration alone, so the report is the same bits in every world that
// computes it. Collective over the world communicator c, which ref was built
// on.
func reference(c *mpi.Comm, study Study, ref *critter.Profiler, refComm *critter.Comm, v int) critter.Report {
	ck := critter.ConfigKey(study.Name, v)
	// A reference interns nothing, so it has no table to key for the memo.
	ref.StartConfig(true)
	c.Rekey(runKey(ck, runReference, 0))
	study.Run(ref, refComm, v)
	return ref.Report()
}

// planMsg is one planning decision as rank 0 hands it to the world: the
// round to run and whether there is one.
type planMsg struct {
	round Round
	ok    bool
}

// runSweep performs one (policy, eps) pass over the configurations the
// strategy selects, judging each approximated execution against the
// configuration's full execution (the measurement protocol of Section VI-A).
// The full execution comes from the study's shared table when another sweep
// has already published it, and is run here, then published, when not.
// Collective. Rank 0 alone plans the sweep and keeps its results: one untimed
// round per planning decision hands every other rank the round to run, so the
// returned Configs, Selected, Optimal, error means and Profile are rank 0's,
// the view sweepJob.run keeps. A plan whose first round is empty fails the
// sweep on every rank. Cancellation is checked at every configuration
// boundary and aborts the whole world.
func runSweep(ctx context.Context, c *mpi.Comm, j sweepJob) SweepResult {
	study, pol, eps, strat := j.study, j.pol, j.eps, j.strat
	opts := critter.Options{
		Policy:      pol,
		Eps:         eps,
		Extrapolate: j.extrapolate,
		Prior:       j.prior,
	}
	// The reference profiler is built on the first miss of the shared table;
	// a sweep that finds every report published never needs one.
	var (
		ref     *critter.Profiler
		refComm *critter.Comm
	)
	// Nothing a sweep keeps reads a kernel's data, so the selective runs and
	// the a-priori offline passes are clocks too: no kernel arithmetic.
	tuned, tunedComm := critter.NewClock(c, opts)
	// Trace from rank 0 only, mirroring the profiler's convention: one
	// deterministic event stream per sweep, not one per rank.
	tr := j.tracer
	if c.Rank() != 0 {
		tr = nil
	}
	sr := SweepResult{Policy: pol, Eps: eps}
	var plan Plan
	if c.Rank() == 0 {
		plan = strat.Plan(study.Space, eps)
	}
	roundNo, roundStart := 0, 0
	for {
		var pm planMsg
		if c.Rank() == 0 {
			pm.round, pm.ok = plan.Next(sr.Configs[roundStart:])
			pm.ok = pm.ok && len(pm.round.Configs) > 0
		}
		// Before the round's first Rekey, so no noise stream or virtual
		// clock sees the hand-off.
		pm = mpi.BcastMsg(c, pm)
		if !pm.ok {
			if roundNo == 0 {
				panic(fmt.Errorf("autotune: strategy %s planned no configurations", strat.Name()))
			}
			break
		}
		round := pm.round
		roundNo++
		if tr != nil {
			tr.Emit(obs.Event{
				Kind: obs.KindStrategy, Phase: obs.PhasePoint,
				Policy: pol.String(), Eps: eps,
				Round: roundNo, Configs: len(round.Configs),
			})
		}
		roundStart = len(sr.Configs)
		if c.Rank() == 0 {
			sr.Configs = slices.Grow(sr.Configs, len(round.Configs))
		}
		for _, v := range round.Configs {
			if ctx.Err() != nil {
				panic(cancelError{ctx.Err()})
			}
			if tr != nil {
				tr.Emit(obs.Event{
					Kind: obs.KindConfig, Phase: obs.PhaseBegin,
					Policy: pol.String(), Eps: eps,
					Config: len(sr.Configs) + 1, Round: roundNo,
				})
			}
			// Rank 0 reads the slot and one untimed round hands every rank
			// its answer, so the world takes the hit or the miss together.
			// Two sweeps that miss the same slot at once both run the
			// reference and publish the same bits: nothing to wait for.
			var known *critter.Report
			if c.Rank() == 0 {
				known = j.refs[v].Load()
			}
			known = mpi.BcastMsg(c, known)
			var full critter.Report
			if known != nil {
				full = *known
			} else {
				if ref == nil {
					ref, refComm = critter.NewReference(c)
				}
				full = reference(c, study, ref, refComm, v)
				if c.Rank() == 0 {
					pub := full
					j.refs[v].Store(&pub)
				}
			}

			ck := critter.ConfigKey(study.Name, v)
			if pol == critter.APriori && round.Eps > 0 {
				// Offline iteration: full execution under online
				// propagation to obtain critical-path execution counts
				// (and samples).
				tuned.StartConfigKeyed(study.ResetStats, ck)
				tuned.SetPolicy(critter.Online)
				tuned.SetEps(0)
				c.Rekey(runKey(ck, runOffline, roundNo))
				study.Run(tuned, tunedComm, v)
				offline := tuned.Report()
				tuned.SetAprioriFromPath()
				sr.TuneWall += offline.Wall
				sr.KernelTime += offline.KernelTime
				sr.CompKernelTime += offline.CompKernel
				tuned.SetPolicy(critter.APriori)
				tuned.SetEps(round.Eps)
				tuned.StartConfig(false) // keep the offline pass's samples
			} else {
				tuned.SetEps(round.Eps)
				tuned.StartConfigKeyed(study.ResetStats, ck)
			}
			c.Rekey(runKey(ck, runSelective, roundNo))
			study.Run(tuned, tunedComm, v)
			sel := tuned.Report()

			if c.Rank() == 0 {
				sr.Configs = append(sr.Configs, ConfigResult{
					Config:    v,
					Eps:       round.Eps,
					Full:      full,
					Selective: sel,
					ExecErr:   stats.RelErr(sel.Predicted, full.Wall),
					CompErr:   stats.RelErr(sel.PredictedComp, full.PredictedComp),
				})
			}
			sr.TuneWall += sel.Wall
			sr.FullWall += full.Wall
			sr.KernelTime += sel.KernelTime
			sr.CompKernelTime += sel.CompKernel
			sr.Executed += sel.Executed
			sr.Skipped += sel.Skipped
			if tr != nil {
				tr.Emit(obs.Event{
					Kind: obs.KindConfig, Phase: obs.PhaseEnd,
					Policy: pol.String(), Eps: eps,
					Config: len(sr.Configs), Round: roundNo,
					Virtual: sel.Wall, FullVirtual: full.Wall,
					Executed: sel.Executed, Skipped: sel.Skipped,
				})
			}
		}
	}
	if c.Rank() == 0 {
		sr.Selected, sr.Optimal = argmins(sr.Configs)
		sr.MeanLogExecErr, sr.MeanLogCompErr = meanLogErrs(sr.Configs)
	}
	// Export what the sweep learned, pooled across ranks (collective) at
	// rank 0, whose SweepResult is the one kept. The archive inside the profiler spans every configuration, so
	// studies that reset statistics between configurations still yield
	// their full union.
	sr.Profile = tuned.GlobalProfile(0)
	// The sweep is done with its selective profiler: donate its arena back
	// to the memo on the worker's pool for the next sweep.
	tuned.Retire()
	return sr
}

// meanLogErrs returns the mean log execution- and computation-time errors of
// a sweep's evaluations, taken in evaluation order.
func meanLogErrs(configs []ConfigResult) (exec, comp float64) {
	n := len(configs)
	errs := make([]float64, 2*n)
	for i, cr := range configs {
		errs[i], errs[n+i] = cr.ExecErr, cr.CompErr
	}
	return stats.MeanLogErr(errs[:n]), stats.MeanLogErr(errs[n:])
}

// argmins picks the sweep's Selected (minimal predicted time) and Optimal
// (minimal full time) configurations. When a rung strategy evaluates a
// configuration more than once, only its last — most refined — evaluation
// competes, so a pruned configuration's stale loose-tolerance prediction
// cannot outrank a survivor's target-tolerance one. Under a single-round
// strategy every evaluation is the last, reproducing the original
// first-minimum scan exactly.
func argmins(configs []ConfigResult) (selected, optimal int) {
	last := make(map[int]int, len(configs))
	for i, cr := range configs {
		last[cr.Config] = i
	}
	bestPred, bestFull := -1.0, -1.0
	for i, cr := range configs {
		if last[cr.Config] != i {
			continue
		}
		if bestPred < 0 || cr.Selective.Predicted < bestPred {
			bestPred = cr.Selective.Predicted
			selected = cr.Config
		}
		if bestFull < 0 || cr.Full.Wall < bestFull {
			bestFull = cr.Full.Wall
			optimal = cr.Config
		}
	}
	return selected, optimal
}

// ResultSchemaVersion identifies the JSON layout emitted by critter-tune
// -json (an Envelope). Version 1 was the bare Result grid; version 2 added
// the self-describing envelope; version 3 added per-sweep profile
// summaries (and the optional prior summary).
const ResultSchemaVersion = 3

// ProfileSummary condenses one sweep's exported kernel profile for the
// envelope: enough to see how much a run learned (and compare warm against
// cold runs) without embedding the full artifact, which critter-tune
// -profile-out persists separately.
type ProfileSummary struct {
	// Policy identifies the sweep the profile came from; empty for
	// summaries not tied to one sweep (a -profile-in prior), whose Eps is
	// then meaningless. Eps is always emitted: 0 is a legitimate sweep
	// tolerance (selective execution disabled).
	Policy       string  `json:"policy,omitempty"`
	Eps          float64 `json:"eps"`
	Estimator    string  `json:"estimator,omitempty"`
	Kernels      int     `json:"kernels"`
	Samples      int64   `json:"samples"`
	Families     int     `json:"families"`
	FamilyPoints int     `json:"familyPoints"`
	PathKeys     int     `json:"pathKeys"`
}

// Summarize condenses a profile for an envelope. pol and eps identify the
// sweep and are supplied by the caller; empty/zero mean "not tied to one
// sweep" (the prior summary).
func Summarize(pol string, eps float64, p *critter.Profile) ProfileSummary {
	s := ProfileSummary{Policy: pol, Eps: eps}
	if p == nil {
		return s
	}
	s.Estimator = p.Estimator
	s.Kernels = len(p.Kernels)
	s.Samples = p.Samples()
	s.Families = len(p.Families)
	s.FamilyPoints = p.FamilyPointCount()
	s.PathKeys = len(p.PathFreqs)
	return s
}

// ProfileSummaries condenses every sweep profile of a result grid, in grid
// order (policy-major), skipping sweeps that exported nothing (failed or
// cancelled cells).
func ProfileSummaries(res *Result) []ProfileSummary {
	if res == nil {
		return nil
	}
	var out []ProfileSummary
	for pi, pol := range res.Policies {
		for ei, eps := range res.EpsList {
			if sw := res.Sweeps[pi][ei]; sw.Profile != nil {
				out = append(out, Summarize(pol.String(), eps, sw.Profile))
			}
		}
	}
	return out
}

// MergedProfile merges every sweep's exported profile of a result grid into
// one artifact — the run's total learned state, suitable for -profile-out
// and later warm starts. Returns nil when no sweep exported anything.
func MergedProfile(res *Result) *critter.Profile {
	if res == nil {
		return nil
	}
	// The first export is copied once and the rest merged into the copy
	// in grid order, which is what chaining MergeProfiles would produce
	// without re-copying the growing profile at every sweep.
	var merged *critter.Profile
	for pi := range res.Sweeps {
		for ei := range res.Sweeps[pi] {
			switch p := res.Sweeps[pi][ei].Profile; {
			case p == nil:
			case merged == nil:
				merged = p.Clone()
			default:
				merged.Merge(p)
			}
		}
	}
	return merged
}

// Envelope is the self-describing serialization of one tuning run: the
// schema version plus every input needed to reproduce or compare the run
// (seed, scale, noise sigma, search strategy) around the result grid, and
// summaries of the kernel profiles the run imported and exported.
type Envelope struct {
	SchemaVersion int     `json:"schemaVersion"`
	Study         string  `json:"study"`
	Scale         string  `json:"scale"`
	Seed          uint64  `json:"seed"`
	NoiseSigma    float64 `json:"noiseSigma"`
	Strategy      string  `json:"strategy"`
	// Prior summarizes the warm-start profile the run was seeded with
	// (-profile-in), nil for cold runs.
	Prior *ProfileSummary `json:"prior,omitempty"`
	// Profiles summarizes each sweep's exported profile in grid order.
	Profiles []ProfileSummary `json:"profiles,omitempty"`
	Result   *Result          `json:"result"`
}

// Envelope wraps res, a grid this tuner returned, with the tuner's inputs
// (seed, noise sigma, strategy), the caller's name for the study's scale,
// a summary of the prior its sweeps were seeded with, and each sweep's
// exported profile summary.
func (t Tuner) Envelope(scale string, res *Result) *Envelope {
	env := &Envelope{
		SchemaVersion: ResultSchemaVersion,
		Study:         t.Study.Name,
		Scale:         scale,
		Seed:          t.Seed,
		NoiseSigma:    t.Machine.NoiseSigma,
		Strategy:      t.strategy().Name(),
		Profiles:      ProfileSummaries(res),
		Result:        res,
	}
	if prior := t.prior(); prior != nil {
		sum := Summarize("", 0, prior)
		env.Prior = &sum
	}
	return env
}
