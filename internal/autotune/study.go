// Package autotune implements the paper's evaluation harness: search over a
// library's configuration space, executed either fully (the reference) or
// selectively under one of Critter's policies at a confidence tolerance
// epsilon, with the measurement protocol of Section VI-A — a full execution
// directly prior to each approximated one, prediction error relative to
// that full execution, and tuning cost as the total (virtual) time of the
// selective executions.
//
// The reference is computed once per configuration and Study value, not once
// per sweep, and that is the same experiment. On a real machine "directly
// prior" is a control for drift: the full run must see the machine the
// approximated run is about to see. The simulated machine has no drift — a
// run's noise is keyed by (seed, rank, study, configuration, run kind, round)
// and by nothing that happened before (mpi.Comm.Rekey, runKey) — so the full
// execution of a configuration is one fact per (study, machine, seed), the
// same bits in whichever sweep runs it and in FullOnlyCtx, and every (policy,
// eps) sweep of every tuner run on that Study value is judged against that
// one report (reference, tuner.go; Study.references). What stays per
// evaluation is the selective run and its draws, which differ from the
// reference's: a profiler that skips nothing still has a non-zero error
// against the reference, as two runs of a real machine do.
//
// The central type is the Tuner (tuner.go), which composes a Study (a
// configuration Space plus an SPMD runner), a search Strategy (Exhaustive —
// the paper's protocol — RandomSample, SuccessiveHalving, or Surrogate), and
// a context-aware concurrent executor. The evaluation grid is embarrassingly
// parallel: each (policy, eps) sweep runs in its own simulated world, so the
// Tuner dispatches sweeps to a bounded worker pool (see executor.go) and
// produces results that are bit-identical at any worker count.
package autotune

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/sim"
)

// Study is one library's tuning problem: a configuration space and an SPMD
// runner executing one configuration under a profiler.
//
// A Study built by one of the case-study constructors (CapitalCholesky,
// SlateCholesky, CandmcQR, SlateQR) carries a table of reference reports that
// its copies share: every Tuner run on the value, or on a copy of it, at the
// same machine and seed runs each configuration's full execution once in
// total. The table holds the reports of one (Name, Run, WorldSize, Size,
// machine, seed) at a time and starts over when a run asks for another, so a
// copy whose Run or WorldSize is replaced never reads the original's reports.
// Run is told apart by its code pointer: two closures of one function
// literal count as the same Run. A Study literal has no table, and each of
// its Tuner runs computes its own references.
type Study struct {
	// Name identifies the study (e.g. "capital-cholesky").
	Name string
	// Space declares the configuration space as named dimensions, letting
	// strategies decode indices and move along axes. A study with an empty
	// space cannot be run (see Validate).
	Space Space
	// WorldSize is the rank count the study's grids require.
	WorldSize int
	// ResetStats requests discarding kernel models between configurations,
	// as the paper does for SLATE's and CANDMC's algorithms (whose kernels
	// change with the configuration's tile/block sizes); CAPITAL keeps its
	// models, which eager propagation exploits across configurations.
	ResetStats bool
	// Run executes configuration v on the calling rank.
	Run func(p *critter.Profiler, cc *critter.Comm, v int)
	// Policies lists the selective-execution policies the paper evaluates
	// for this study (eager only for the bulk-synchronous CAPITAL).
	Policies []critter.Policy

	// refs is the reference table the value and its copies share; nil for
	// a Study literal.
	refs *refTable
}

// refTable holds one slot set of reference reports, for the key it was last
// asked for.
type refTable struct {
	mu    sync.Mutex
	key   refKey
	slots []atomic.Pointer[critter.Report]
}

// refKey names everything a reference report is a function of besides the
// configuration.
type refKey struct {
	name        string
	run         uintptr
	world, size int
	machine     sim.Machine
	seed        uint64
}

// references returns the slot set a Tuner run on machine m and seed hands
// its sweeps, one slot per configuration (sweepJob.refs). With a table it is
// the table's set for that key, made anew when the key differs from the
// last one asked for; a run already holding the old set keeps it, which
// stays correct because its key is still its own. Without a table every
// call gets a fresh set.
func (s Study) references(m sim.Machine, seed uint64) []atomic.Pointer[critter.Report] {
	if s.refs == nil {
		return make([]atomic.Pointer[critter.Report], s.Size())
	}
	k := refKey{
		name: s.Name, run: reflect.ValueOf(s.Run).Pointer(),
		world: s.WorldSize, size: s.Size(),
		machine: m, seed: seed,
	}
	t := s.refs
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.key != k {
		t.key, t.slots = k, make([]atomic.Pointer[critter.Report], k.size)
	}
	return t.slots
}

// Size returns the number of configurations in the study's space.
func (s Study) Size() int { return s.Space.Size() }

// Label renders configuration v for reports: the space's "name=value" join.
func (s Study) Label(v int) string { return s.Space.Describe(v) }

// Validate rejects a study no sweep can run. Without configurations a sweep
// would plan zero rounds and report Selected: 0, Optimal: 0 as if it had
// searched, and without ranks no world can be built, so every entry point
// (Tuner.Run/Stream, RunTuners, FullOnlyCtx, workload registration) fails
// such a study instead.
func (s Study) Validate() error {
	switch {
	case s.Size() == 0:
		return fmt.Errorf("study %q has no configurations (empty Space)", s.Name)
	case s.Run == nil:
		return fmt.Errorf("study %q has no Run function", s.Name)
	case s.WorldSize < 1:
		return fmt.Errorf("study %q has WorldSize %d, want at least 1", s.Name, s.WorldSize)
	}
	return nil
}

// ConfigResult captures one configuration's reference and selective runs.
type ConfigResult struct {
	Config    int
	Eps       float64 // tolerance this evaluation ran at (rung strategies loosen early rounds)
	Full      critter.Report
	Selective critter.Report
	ExecErr   float64 // |predicted - full| / full execution time
	CompErr   float64 // same for critical-path computation time
}

// SweepResult aggregates one (policy, epsilon) pass over the configurations
// the sweep's strategy evaluated (the whole space under Exhaustive).
type SweepResult struct {
	Policy  critter.Policy `json:"Policy"`
	Eps     float64        `json:"Eps"`
	Configs []ConfigResult `json:"Configs"`

	TuneWall       float64 `json:"TuneWall"`       // total selective-execution virtual time (the tuning cost)
	FullWall       float64 `json:"FullWall"`       // total full-execution virtual time over the evaluated configs (the red line)
	KernelTime     float64 `json:"KernelTime"`     // sum over configs of max-rank executed-kernel time
	CompKernelTime float64 `json:"CompKernelTime"` // same, computation kernels only
	// MeanLogExecErr/MeanLogCompErr are the log2 geometric-mean prediction
	// errors over every evaluation performed; under a rung strategy that
	// includes the loosened-tolerance rungs, not just target-eps runs.
	MeanLogExecErr float64 `json:"MeanLogExecErr"`
	MeanLogCompErr float64 `json:"MeanLogCompErr"`
	Selected       int     `json:"Selected"` // argmin of predicted times (Critter's choice); rung strategies compare each config's last evaluation
	Optimal        int     `json:"Optimal"`  // argmin of full execution times among evaluated configs
	Executed       int64   `json:"Executed"`
	Skipped        int64   `json:"Skipped"`

	// KernelsMemoized counts the skips whose predictability decision was
	// replayed from a profiler's per-kernel decision cache instead of
	// re-derived from the model (critter.Report.Memoized, summed over the
	// sweep); the count is the same with or without the worker's
	// critter.KernelMemo. Excluded from JSON: it is observational, so
	// envelopes stay byte-identical. Surfaced operationally as the
	// kernels_memoized_total metric.
	KernelsMemoized int64 `json:"-"`

	// Profile is what the sweep's selective executions learned, merged
	// across every configuration and rank: kernel models, fitted family
	// extrapolators, and critical-path frequencies. Feed it back through
	// Tuner.Prior (or WarmStart) to warm-start a later run. Excluded from
	// JSON — the Envelope carries per-sweep summaries instead; persist the
	// full artifact with Profile.Encode (critter-tune -profile-out).
	Profile *critter.Profile `json:"-"`
}

// Result holds every sweep of a tuning run, indexed [policy][eps].
type Result struct {
	Study    string
	Strategy string
	Policies []critter.Policy
	EpsList  []float64
	Sweeps   [][]SweepResult
}

// FullOnlyCtx runs every configuration once with full execution, returning
// the per-configuration reports (the data of Figure 3: BSP cost trade-offs
// and execution-time breakdowns), parallel across configurations on a pool
// of workers (0 or negative means runtime.GOMAXPROCS(0)) that ctx cancels.
// Each configuration runs in its own world through the same reference
// execution a Tuner's sweeps use, so reports[v] is bit-identical at any
// worker count and equals ConfigResult.Full of configuration v in every
// sweep of a Tuner with the same study, machine and seed. The report slice
// is always returned with failed or skipped configurations zeroed, alongside
// the joined errors; a study that fails Validate runs nothing.
func FullOnlyCtx(ctx context.Context, study Study, machine sim.Machine, seed uint64, workers int) ([]critter.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := study.Size()
	reports := make([]critter.Report, n)
	if err := study.Validate(); err != nil {
		return reports, fmt.Errorf("autotune: %w", err)
	}
	errs := make([]error, n)
	forEachBounded(n, workers, nil, func(v int, sc *scratch) {
		errs[v] = fullOnlyConfig(ctx, study, machine, seed, v, sc, &reports[v])
	})
	return reports, errors.Join(errs...)
}

// fullOnlyConfig runs one configuration with full execution in its own
// world — wired to the worker's arena — storing rank 0's report.
func fullOnlyConfig(ctx context.Context, study Study, machine sim.Machine, seed uint64, v int, sc *scratch, out *critter.Report) error {
	err := ctx.Err()
	if err == nil {
		err = machine.Validate()
	}
	if err != nil {
		return fmt.Errorf("autotune: %s: config %d: %w", study.Name, v, err)
	}
	w := sc.world(study.WorldSize, machine, seed)
	err = w.Run(func(c *mpi.Comm) {
		ref, refComm := critter.NewReference(c)
		rep := reference(c, study, ref, refComm, v)
		if c.Rank() == 0 {
			*out = rep
		}
	})
	if err != nil {
		*out = critter.Report{}
		return fmt.Errorf("autotune: %s: config %d: %w", study.Name, v, err)
	}
	return nil
}

// DefaultEpsList is the paper's tolerance sweep: eps = 2^0 .. 2^-10.
func DefaultEpsList() []float64 {
	out := make([]float64, 11)
	e := 1.0
	for i := range out {
		out[i] = e
		e /= 2
	}
	return out
}
