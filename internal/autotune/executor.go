package autotune

// The concurrent sweep executor. Every (study, policy, eps) sweep runs in its
// own deterministic world, and a run's noise is keyed by what is run (see
// runKey), so the full evaluation grid — within one Tuner or across several —
// is dispatched to a bounded pool of worker goroutines. Each job writes into
// a preallocated result slot, and the reference reports the sweeps of a
// Study value share are the same bits whichever sweep computes them, making
// results bit-identical to the sequential path regardless of worker count or
// completion order. Cancellation is cooperative: workers skip pending jobs
// once the context is done, and a running sweep aborts its world at the next
// configuration boundary.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"critter/internal/critter"
	"critter/internal/mpi"
	"critter/internal/obs"
	"critter/internal/sim"
)

// Progress describes one completed sweep — successful, failed, or skipped
// on cancellation — for shared progress reporting across concurrently
// running tuners. Done always reaches Total, so consumers may treat
// Done == Total as end-of-run.
type Progress struct {
	Study  string
	Policy critter.Policy
	Eps    float64
	Done   int   // sweeps completed so far under this reporter
	Total  int   // total sweeps scheduled under this reporter
	Err    error // non-nil when this sweep failed or was cancelled
}

// progressSink serializes completion callbacks from concurrent workers and
// tracks the done/total counts. Nil callbacks disable reporting; the
// counters still advance so Total is meaningful if jobs are added later.
type progressSink struct {
	mu sync.Mutex
	fn func(Progress)
	// emit, when non-nil, receives every finished sweep for streaming
	// consumers (Tuner.Stream, Arenas.Run).
	emit  func(SweepResult, error)
	done  int
	total int
}

// grow registers n more scheduled sweeps. Called while building jobs,
// before any worker runs.
func (ps *progressSink) grow(n int) { ps.total += n }

// report records one completed sweep and invokes the callbacks, serialized.
// sw is the sweep's final slot, tagged with its cell's policy and eps even
// when err zeroed it.
func (ps *progressSink) report(study string, sw SweepResult, err error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.done++
	if ps.fn != nil {
		ps.fn(Progress{Study: study, Policy: sw.Policy, Eps: sw.Eps, Done: ps.done, Total: ps.total, Err: err})
	}
	if ps.emit != nil {
		ps.emit(sw, err)
	}
}

// Arenas is a set of executor arenas owned by a caller that runs tuner after
// tuner, such as the service's runners. An arena is a worker's buffer pool
// (mpi.BufPool): every world the worker runs is on it, so consecutive sweeps
// recycle each other's payload buffers, mailboxes and the profiler's kernel
// memo (interners and retired records) instead of rebuilding them. Every run
// through the set (Arenas.Run) takes its workers' arenas from it and gives
// them back, so they grow once rather than once per run. It holds at most as
// many arenas as its runs have had workers at once, each for as long as the
// Arenas itself lives; an arena's memo registers one table per distinct
// (study, scale, configuration) it has run. Tuner.Run, Stream and RunTuners,
// which have no such owner, give each worker a fresh arena that dies with
// the run. The zero value is an empty set.
//
// An arena's lifetime is the owner's, not the collector's: a free list that
// the collector emptied would leave whether a run starts warm, and so what it
// allocates, to when the last collection happened.
type Arenas struct {
	mu   sync.Mutex
	free []*mpi.BufPool
}

// take returns the arena given back last, or a new one. A nil set has no
// arenas to give.
func (a *Arenas) take() *mpi.BufPool {
	if a == nil {
		return mpi.NewBufPool()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.free)
	if n == 0 {
		return mpi.NewBufPool()
	}
	pool := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	return pool
}

// give files an arena its worker is done with for the next worker to take.
func (a *Arenas) give(pool *mpi.BufPool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.free = append(a.free, pool)
	a.mu.Unlock()
}

// Run is t.Run with the workers' arenas taken from a and given back, and
// with emit, when non-nil, called once per sweep as it completes, as
// Tuner.Stream yields them; the calls are serialized. The grid and error
// are byte-identical to t.Run's: an arena changes how fast a run goes,
// never what it computes. A nil set gives each worker a fresh arena.
func (a *Arenas) Run(ctx context.Context, t Tuner, emit func(SweepResult, error)) (*Result, error) {
	return t.run(ctx, a, emit)
}

// sweepJob is one (study, policy, eps) cell of the evaluation grid. It owns
// its result slot exclusively, so workers share no mutable state beyond the
// progress sink and the study's table of reference reports.
type sweepJob struct {
	study   Study
	strat   Strategy
	pol     critter.Policy
	eps     float64
	machine sim.Machine
	seed    uint64
	// prior warm-starts the selective profiler (Tuner.prior resolves it)
	// and extrapolate enables its family fits (see Tuner.Extrapolate).
	prior       *critter.Profile
	extrapolate bool
	// tracer receives the sweep's span events (see Tuner.Tracer); nil
	// disables tracing for this job at the cost of one branch.
	tracer obs.Tracer
	// refs is the reference (full-execution) report of each configuration,
	// shared by all of a tuner's jobs and, for a Study value that carries a
	// table, by every tuner run on it at the same machine and seed
	// (Study.references): nil until some sweep has run the configuration's
	// reference and rank 0 of its world has published the report. The
	// value is a pure function of (study, machine, seed, configuration), so
	// a slot is only ever overwritten with the bits it already holds, and a
	// sweep that fails or is cancelled mid-reference publishes nothing.
	refs []atomic.Pointer[critter.Report]
	out  *SweepResult
	sink *progressSink
}

// run simulates the sweep in a fresh world — wired to the worker's arena —
// and stores rank 0's view. A done context, or a study or machine that fails
// Validate, skips the simulation entirely; failure or cancellation zeroes
// the slot. With a tracer installed the sweep is bracketed by begin/end span
// events, the end event carrying the sweep's virtual totals and the process
// heap growth observed across the span (approximate under concurrent
// sweeps — TotalAlloc is process-global).
func (j sweepJob) run(ctx context.Context, pool *mpi.BufPool) error {
	var allocStart uint64
	if j.tracer != nil {
		j.tracer.Emit(obs.Event{
			Kind: obs.KindSweep, Phase: obs.PhaseBegin,
			Policy: j.pol.String(), Eps: j.eps,
		})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocStart = ms.TotalAlloc
	}
	err := ctx.Err()
	if err == nil {
		err = j.study.Validate()
	}
	if err == nil {
		err = j.machine.Validate()
	}
	if err == nil {
		w := mpi.NewWorld(j.study.WorldSize, j.machine, j.seed)
		w.SetBufPool(pool)
		w.SetTracer(j.tracer)
		err = w.Run(func(c *mpi.Comm) {
			sr := runSweep(ctx, c, j)
			if c.Rank() == 0 {
				*j.out = sr
			}
		})
	}
	if err != nil {
		*j.out = SweepResult{}
		err = fmt.Errorf("autotune: %s: policy %s eps %g: %w", j.study.Name, j.pol, j.eps, err)
	}
	if j.tracer != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ev := obs.Event{
			Kind: obs.KindSweep, Phase: obs.PhaseEnd,
			Policy: j.pol.String(), Eps: j.eps,
			Virtual: j.out.TuneWall, FullVirtual: j.out.FullWall,
			Executed: j.out.Executed, Skipped: j.out.Skipped,
			Memoized:   j.out.KernelsMemoized,
			AllocBytes: ms.TotalAlloc - allocStart,
		}
		if err != nil {
			ev.Error = err.Error()
		}
		j.tracer.Emit(ev)
	}
	sw := *j.out
	sw.Policy, sw.Eps = j.pol, j.eps
	j.sink.report(j.study.Name, sw, err)
	return err
}

// forEachBounded runs fn(i, pool) for every i in [0, n) on at most workers
// goroutines (0 or negative means runtime.GOMAXPROCS(0); 1 recovers the
// sequential path). pool is the executing worker's arena: each worker
// goroutine takes one from arenas (a fresh one when arenas is nil), hands it
// to every call it runs, and gives it back when the indices run out. The
// index channel is buffered to n, so feeding it never blocks a worker. It is
// the one pool implementation shared by the sweep executor and the full-only
// pass.
func forEachBounded(n, workers int, arenas *Arenas, fn func(i int, pool *mpi.BufPool)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		pool := arenas.take()
		defer arenas.give(pool)
		for i := 0; i < n; i++ {
			fn(i, pool)
		}
		return
	}
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := arenas.take()
			defer arenas.give(pool)
			for i := range idx {
				fn(i, pool)
			}
		}()
	}
	wg.Wait()
}

// runJobs executes jobs on at most workers goroutines — each carrying its
// own arena, taken from arenas — and returns the per-job errors in
// job order, nil entries for successes. A failed sweep never blocks the
// others.
func runJobs(ctx context.Context, jobs []sweepJob, workers int, arenas *Arenas) []error {
	errs := make([]error, len(jobs))
	forEachBounded(len(jobs), workers, arenas, func(i int, pool *mpi.BufPool) {
		errs[i] = jobs[i].run(ctx, pool)
	})
	return errs
}
