// Package critter is a Go reproduction of "Accelerating Distributed-Memory
// Autotuning via Statistical Analysis of Execution Paths" (Hutter &
// Solomonik, IPDPS 2021): the Critter profiler for selective kernel
// execution, a deterministic virtual-time message-passing runtime it runs
// on, dense BLAS/LAPACK kernels, the paper's four case-study factorization
// libraries (CAPITAL Cholesky, SLATE Cholesky and QR, CANDMC QR), and the
// autotuning evaluation harness that regenerates Figures 3-5.
//
// The autotuning surface is the Tuner, which composes three abstractions:
// a Space (the study's configuration space as named dimensions), a search
// Strategy (Exhaustive — the paper's protocol — RandomSample for budgeted
// tuning, SuccessiveHalving, which prunes configurations across tolerance
// rungs using Critter's predicted times, or Surrogate, which spends an
// evaluation budget by expected improvement under a deterministic
// regression model of the space, with a fixed exploration margin; each
// sweep's strategy plans once, on rank 0 of the sweep's world, from the
// ConfigResults alone), and a
// context-aware concurrent runner. Every (study, policy, eps) sweep of the tuning grid
// runs in its own deterministic world whose noise is keyed by what is run, so Tuner.Run
// dispatches sweeps to a bounded pool of worker goroutines (Workers;
// default GOMAXPROCS) and produces results bit-identical to a sequential
// run at any worker count; cancelling the context stops a running grid at
// the next configuration boundary. Tuner.Stream yields sweeps in
// completion order as an iterator for serving and streaming consumers, and
// RunTuners shares one pool across several studies.
//
// The prediction model behind the skip decisions is the paper's: a
// confidence interval on each kernel signature's sample mean, optionally
// extended by per-routine-family line fits (Options.Extrapolate). What a
// run learns is a persistent artifact: every sweep exports a versioned,
// JSON-serializable Profile that warm-starts later runs via Options.Prior,
// Tuner.Prior, or the WarmStart strategy decorator — including across
// problem scales, where the fitted family extrapolators keep predicting
// after the per-signature models stop matching.
//
// Tuning problems themselves are first-class Workloads — plain values: a
// name, a Study builder, default policies and scale presets — in a
// process-global registry: the shipped catalog (the four case studies plus
// the example workloads) and anything added with RegisterWorkload resolve
// by name through LookupWorkload, the CLIs, and the critter-serve job
// service, which queues tuning runs behind an HTTP JSON API and
// warm-starts each job from what earlier jobs on the same workload
// learned. The service is built to be run continuously: finished jobs,
// result envelopes, and merged profiles persist across restarts in an
// embedded crash-safe store (internal/store, enabled with -store),
// identical submissions deduplicate onto one execution (and, without warm
// start, memoize afterwards), and a bounded queue sheds overload with
// 429 + Retry-After. The determinism guarantees make all of that safe:
// because a spec's result is byte-identical whenever it runs, caching and
// replaying jobs cannot change what a client observes.
//
// This file is the public facade: it re-exports the stable API surface from
// the internal packages. Typical use:
//
//	world := critter.NewWorld(64, critter.DefaultMachine(), seed)
//	err := world.Run(func(c *critter.RawComm) {
//	    prof, comm := critter.NewProfiler(c, critter.Options{
//	        Policy: critter.Online, Eps: 0.125,
//	    })
//	    // Build grids with comm.Split, run kernels via prof.Gemm etc.;
//	    // communication through comm.Bcast/Isend/... is selectively
//	    // executed once its statistics make it predictable.
//	    report := prof.Report()
//	    _ = report
//	})
package critter

import (
	"context"
	"io"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/workload"
)

// Core profiler types (the paper's contribution).
type (
	// Profiler is one rank's Critter instance: kernel models, pathset,
	// and selective-execution decisions.
	Profiler = critter.Profiler
	// Comm is a profiled communicator; all traffic through it is
	// intercepted by the path propagation mechanism.
	Comm = critter.Comm
	// RawComm is the underlying unprofiled communicator handle.
	RawComm = mpi.Comm
	// World is the simulated machine: ranks, mailboxes, virtual clocks.
	World = mpi.World
	// Options configures a Profiler (policy, tolerance, extrapolation, prior).
	Options = critter.Options
	// Policy selects the selective-execution method.
	Policy = critter.Policy
	// Key is a kernel signature.
	Key = critter.Key
	// Report summarizes one configuration run.
	Report = critter.Report
	// Profile is the versioned, JSON-serializable artifact of what a
	// profiling run learned: kernel models, fitted family extrapolators,
	// and critical-path frequencies. Export with Profiler.ExportProfile or
	// from SweepResult.Profile; feed back via Options.Prior, Tuner.Prior,
	// or the WarmStart strategy decorator.
	Profile = critter.Profile
	// KernelModel is one kernel signature's serialized duration model.
	KernelModel = critter.KernelModel
	// Family is one routine family's serialized extrapolation model.
	Family = critter.Family
	// FamilyPoint is one (flops, mean) sample of a family model.
	FamilyPoint = critter.FamilyPoint
	// ProfileSummary condenses a profile for result envelopes.
	ProfileSummary = autotune.ProfileSummary
	// Machine is the alpha-beta-gamma cost model.
	Machine = sim.Machine
	// Study is one library's tuning problem: a configuration Space plus an
	// SPMD runner.
	Study = autotune.Study
	// Space is a configuration space declared as named dimensions, with
	// per-dimension decoding for search strategies.
	Space = autotune.Space
	// Dim is one named axis of a Space.
	Dim = autotune.Dim
	// Tuner sweeps a study over policies and tolerances under a search
	// Strategy, with context cancellation (Run) and streaming results
	// (Stream) on a bounded worker pool.
	Tuner = autotune.Tuner
	// Strategy plans which configurations a sweep evaluates.
	Strategy = autotune.Strategy
	// Plan is one sweep's stateful iteration of a Strategy.
	Plan = autotune.Plan
	// Round is one batch of configurations a Plan asks the runner to
	// evaluate, at a given tolerance.
	Round = autotune.Round
	// Exhaustive evaluates every configuration in index order — the
	// paper's protocol, and the default Strategy.
	Exhaustive = autotune.Exhaustive
	// RandomSample evaluates N deterministically sampled configurations,
	// for budgeted tuning of large spaces.
	RandomSample = autotune.RandomSample
	// SuccessiveHalving prunes configurations across tolerance rungs using
	// Critter's predicted execution times.
	SuccessiveHalving = autotune.SuccessiveHalving
	// Surrogate evaluates up to N configurations chosen by a deterministic
	// ridge-regression surrogate with expected-improvement acquisition,
	// fit on Critter's predicted times as they arrive.
	Surrogate = autotune.Surrogate
	// Envelope is the self-describing JSON serialization of one tuning
	// run (schema version, seed, scale, noise, strategy, result grid).
	Envelope = autotune.Envelope
	// Result holds every sweep of a tuning run, indexed [policy][eps].
	Result = autotune.Result
	// SweepResult aggregates one (policy, eps) pass over a study's space.
	SweepResult = autotune.SweepResult
	// ConfigResult captures one configuration's reference and selective runs.
	ConfigResult = autotune.ConfigResult
	// Progress describes one completed sweep of a running Tuner or RunTuners pool.
	Progress = autotune.Progress
	// Scale sizes the built-in case studies.
	Scale = autotune.Scale
	// Workload is a first-class, registrable tuning problem: name,
	// description, a Study builder, default policies and scale presets.
	// Fill Name and Build and pass the value to RegisterWorkload, which
	// fills empty Policies and Scales; resolve by name through
	// LookupWorkload.
	Workload = workload.Workload
	// ScalePreset is one named problem size a workload declares.
	ScalePreset = workload.ScalePreset
)

// Selective-execution policies (Section IV-B of the paper).
const (
	Conditional = critter.Conditional
	Local       = critter.Local
	Online      = critter.Online
	APriori     = critter.APriori
	Eager       = critter.Eager
)

// NewWorld creates a simulated machine of size ranks.
func NewWorld(size int, m Machine, seed uint64) *World { return mpi.NewWorld(size, m, seed) }

// DefaultMachine returns the calibrated machine model.
func DefaultMachine() Machine { return sim.DefaultMachine() }

// NewProfiler creates a rank's profiler and wraps its world communicator;
// collective over the world.
func NewProfiler(c *RawComm, o Options) (*Profiler, *Comm) { return critter.New(c, o) }

// WarmStart decorates a search strategy with a warm-start prior: every
// sweep the decorated strategy plans seeds its selective profiler from the
// prior profile. A nil inner means Exhaustive; a nil prior returns inner
// unchanged.
func WarmStart(inner Strategy, prior *Profile) Strategy {
	return autotune.WarmStart(inner, prior)
}

// MergeProfiles merges b into a copy of a (either may be nil): kernel
// models pool their samples, family points union, path frequencies take
// the max.
func MergeProfiles(a, b *Profile) *Profile { return critter.MergeProfiles(a, b) }

// DecodeProfile parses and validates a serialized kernel profile.
func DecodeProfile(data []byte) (*Profile, error) { return critter.DecodeProfile(data) }

// MergedProfile merges every sweep's exported profile of a result grid
// into one artifact (nil when nothing was exported).
func MergedProfile(res *Result) *Profile { return autotune.MergedProfile(res) }

// ProfileSchemaVersion identifies the JSON layout of Profile.
const ProfileSchemaVersion = critter.ProfileSchemaVersion

// DefaultScale sizes the built-in case studies for a laptop.
func DefaultScale() Scale { return autotune.DefaultScale() }

// QuickScale sizes the built-in case studies for tests.
func QuickScale() Scale { return autotune.QuickScale() }

// ParsePolicy resolves a policy name as used in critter-tune flags and
// serialized results.
func ParsePolicy(name string) (Policy, error) { return critter.ParsePolicy(name) }

// RegisterWorkload adds a custom workload to the default registry, making
// it resolvable by name everywhere studies are: LookupWorkload, the CLIs'
// -study flags, and the critter-serve job API. Empty and duplicate names,
// a nil Build, and a workload whose study fails Study.Validate are errors.
func RegisterWorkload(w Workload) error { return workload.Default().Register(w) }

// LookupWorkload resolves a workload by name in the default registry.
func LookupWorkload(name string) (Workload, bool) { return workload.Default().Lookup(name) }

// Workloads returns the default registry's workloads in registration order
// (the four case studies first, in the paper's presentation order, then
// the example workloads, then anything registered since).
func Workloads() []Workload { return workload.Default().List() }

// WorkloadScale resolves one of w's declared scale presets by name; the
// error enumerates w's preset names.
func WorkloadScale(w Workload, name string) (Scale, error) { return workload.ScaleOf(w, name) }

// DecodeEnvelope parses a serialized tuning-run envelope (critter-tune
// -json output, critter-serve job results), accepting schema versions 2
// through ResultSchemaVersion and rejecting unknown future versions.
func DecodeEnvelope(data []byte) (*Envelope, error) { return autotune.DecodeEnvelope(data) }

// StrategyNames documents the strategy flag grammar ParseStrategy accepts,
// for usage strings.
const StrategyNames = autotune.StrategyNames

// ParseStrategy resolves a search-strategy flag spec ("exhaustive",
// "random:N", "halving", "surrogate:N"); seed seeds RandomSample's and
// Surrogate's sampling streams.
func ParseStrategy(spec string, seed uint64) (Strategy, error) {
	return autotune.ParseStrategy(spec, seed)
}

// RunTuners executes several tuners through one shared bounded worker pool
// with pool-wide progress reporting; both returned slices align with
// tuners.
func RunTuners(ctx context.Context, tuners []Tuner, workers int, progress func(Progress)) ([]*Result, []error) {
	return autotune.RunTuners(ctx, tuners, workers, progress)
}

// NewSpace builds a configuration space from its dimensions,
// fastest-varying first.
func NewSpace(dims ...Dim) Space { return autotune.NewSpace(dims...) }

// IntsDim builds a space dimension whose points are integers.
func IntsDim(name string, vals ...int) Dim { return autotune.IntsDim(name, vals...) }

// GridsDim builds a space dimension whose points are 2D processor-grid
// shapes, labeled "PRxPC".
func GridsDim(name string, grids ...[2]int) Dim { return autotune.GridsDim(name, grids...) }

// ResultSchemaVersion identifies the JSON layout of Envelope.
const ResultSchemaVersion = autotune.ResultSchemaVersion

// Built-in case studies (Section V of the paper).
var (
	CapitalCholesky = autotune.CapitalCholesky
	SlateCholesky   = autotune.SlateCholesky
	CandmcQR        = autotune.CandmcQR
	SlateQR         = autotune.SlateQR
)

// DefaultEpsList returns the paper's tolerance sweep, eps = 2^0 .. 2^-10.
func DefaultEpsList() []float64 { return autotune.DefaultEpsList() }

// Observability (internal/obs): dual-clock run tracing.
type (
	// Tracer receives span events from a tuning run: set Tuner.Tracer to
	// observe job → sweep → config → propagation-round structure. Emit must
	// be safe for concurrent use; implementations stamp wall time themselves
	// so the deterministic layers never read the real clock.
	Tracer = obs.Tracer
	// TraceEvent is one dual-clock trace record: virtual seconds from the
	// simulation, wall nanoseconds from the tracer's injected clock.
	TraceEvent = obs.Event
)

// TraceSchemaVersion identifies the JSON layout of TraceEvent streams.
const TraceSchemaVersion = obs.TraceSchemaVersion

// NewTraceRing returns a bounded in-memory tracer retaining the most
// recent capacity events (default 4096 when capacity <= 0), stamping wall
// time with the real clock.
func NewTraceRing(capacity int) *obs.Ring { return obs.NewRing(capacity, obs.WallClock()) }

// NewTraceJSONL returns a tracer that appends one JSON object per event to
// w (a schema-version header line first), stamping wall time with the real
// clock. Check Err after the run; cmd/critter-trace summarizes the output.
func NewTraceJSONL(w io.Writer) *obs.JSONL { return obs.NewJSONL(w, obs.WallClock()) }
