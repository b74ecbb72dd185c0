// Package mpi implements a deterministic, in-process message-passing runtime
// with MPI-like semantics and virtual time. It is the substrate on which the
// Critter profiler and the distributed factorization libraries run.
//
// A world's ranks are coroutines (iter.Pull) driven by one loop: a rank runs
// until it must wait for a message or a collective round, then yields, and
// the post or the last arrival that satisfies its wait puts it back on the
// loop's run queue. Ranks never run at once, so no communication path takes
// a lock. Each rank owns a virtual clock (package sim); point-to-point
// messages and collectives advance clocks according to an alpha-beta-gamma
// machine model with deterministic per-rank noise, so a fixed seed
// reproduces identical virtual timings whatever order the loop runs the
// ready ranks in.
//
// The interface mirrors the MPI subset used by the paper's four case-study
// libraries: point-to-point Send, Isend and Recv (an Isend captures its
// payload at issue, so it completes at once and has no request to wait on),
// the collectives Bcast, Allreduce, Allgather, Gather, Scatter, Barrier,
// and communicator construction via Split and Dup. Payloads are
// []float64 (application data) or typed values via the generic message core
// (Lane, AllreduceMsg and BcastMsg, used by the profiler's internal
// piggyback messages).
//
// All traffic runs on typed fabrics (fabric.go): one mailbox per
// destination rank and one table of open collective rounds per payload type.
package mpi

import (
	"errors"
	"fmt"
	"iter"
	"reflect"
	"slices"

	"critter/internal/obs"
	"critter/internal/sim"
)

// ErrAborted is the panic value raised in every suspended rank when some
// rank fails or the world deadlocks, so a single failure cannot leave the
// remaining ranks waiting.
var ErrAborted = fmt.Errorf("mpi: world aborted due to failure on another rank")

// errDeadlock is the abort cause when the run queue empties while ranks are
// unfinished: every one of them waits for a message or a round that no rank
// is left to post or join. Run returns it (wrapped) instead of hanging.
var errDeadlock = errors.New("mpi: deadlock: every rank is blocked with no message in flight")

// World is a set of P ranks sharing a machine model, a message fabric per
// payload type, and a BufPool for data-plane payloads and workspace chunks
// (its own from NewWorld on, or one SetBufPool shares across worlds). Create
// one with NewWorld and run an SPMD program with Run.
type World struct {
	size    int
	machine sim.Machine
	seed    uint64

	ranks []*rankState

	// fabrics maps a payload type (reflect.Type) to its *fabric[T]; Run
	// resolves the data plane's two once the world's pool is set:
	// point-to-point payloads travel at T = []float64 (dataFab), data
	// collectives meet at T = collView (collFab).
	fabrics map[reflect.Type]anyFabric
	dataFab *fabric[[]float64]
	collFab *fabric[collView]

	// bufs recycles data-plane payload buffers across messages (and, via
	// the sweep executor's per-worker scratch, across the worlds a worker
	// runs). NewWorld makes the world's own; never nil. See BufPool.
	bufs *BufPool

	// trace, when non-nil, receives span events from the layers running
	// on this world (the profiler's propagation rounds). See SetTracer.
	trace obs.Tracer

	// runq lists the world ranks ready to run, in the order they became
	// ready. The loop takes the one pick chooses: the first when pick is
	// nil, any index in [0, n) otherwise. Only this package's tests set
	// pick, to show that no clock depends on the order.
	runq []int
	pick func(n int) int

	// aborted marks a failed world and abortE records its first failure.
	aborted bool
	abortE  any

	// costOnly marks a world whose data operations charge time and move no
	// data, and scratch is the one buffer its ranks' workspaces hand out
	// views of (see MarkCostOnly).
	costOnly bool
	scratch  []float64
}

// rankState is the per-rank private state, confined to the rank's
// coroutine.
type rankState struct {
	worldRank int
	clock     sim.Clock
	rng       *sim.RNG
	// yield suspends the rank's coroutine (see wait).
	yield func(struct{}) bool
	// splitScratch is the member order this rank sorts in when it is the
	// last arriver of a Split round (see finishSplit).
	splitScratch []int
	// collScratch is the buffer this rank reduces or concatenates into when
	// it is the last arriver of a data collective (see Comm.scratch).
	collScratch []float64
	// ws is the rank's scratch stack for the workload running on it (see
	// Workspace); Run wires it to the world's buffer pool.
	ws Workspace
	// world is the rank's world communicator, which Free refuses; freed
	// holds the handles Free gave back, the last freed on top (see handle).
	world *Comm
	freed []*Comm
}

// NewWorld creates a world of size ranks with the given machine model and
// noise seed. It panics if size < 1 or the machine fails validation.
func NewWorld(size int, machine sim.Machine, seed uint64) *World {
	if size < 1 {
		panic("mpi: world size must be at least 1")
	}
	if err := machine.Validate(); err != nil {
		panic(err)
	}
	w := &World{
		size:    size,
		machine: machine,
		seed:    seed,
		ranks:   make([]*rankState, size),
		fabrics: make(map[reflect.Type]anyFabric),
		bufs:    NewBufPool(),
		runq:    make([]int, 0, size),
	}
	for r := 0; r < size; r++ {
		w.ranks[r] = &rankState{
			worldRank: r,
			rng:       sim.NewRNG(sim.Mix(seed, uint64(r), 0x6d7069)),
		}
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Machine returns the world's machine model.
func (w *World) Machine() sim.Machine { return w.machine }

// Seed returns the world's noise seed.
func (w *World) Seed() uint64 { return w.seed }

// SetBufPool replaces the world's payload-buffer recycler, which NewWorld
// made for it, with p; p must not be nil. Call it before Run. Pools may be
// shared across worlds that run sequentially (the sweep executor threads one
// per worker), which then start on the buffers, scratch and mailbox arrays
// the worlds before them gave back, not across concurrently running worlds'
// lifetimes — the pool itself is safe for concurrent use, so sharing is a
// throughput choice, not a safety one.
func (w *World) SetBufPool(p *BufPool) { w.bufs = p }

// BufPoolOf returns the world's payload-buffer recycler; never nil.
// A workload's per-step scratch does not come from here but from its rank's
// Workspace, which draws its chunks from this pool. What stays on the pool
// directly is storage whose lifetime is not a stack's: slate's TileMatrix
// tiles, which live as long as the matrix, and slate.Cholesky's received
// panels, which are retired a lookahead after they arrive — anything Put
// must no longer be referenced.
func (w *World) BufPoolOf() *BufPool { return w.bufs }

// SetTracer installs a trace sink for layers running on this world. Call
// it before Run; nil (the default) disables tracing, and every emitter
// nil-checks before building an event, so the disabled path costs one
// branch. Tracing never touches the virtual clocks or RNG streams —
// envelopes are byte-identical with tracing on or off.
func (w *World) SetTracer(t obs.Tracer) { w.trace = t }

// TracerOf returns the installed trace sink (nil when none). Emitters
// conventionally trace from rank 0 only, keeping event streams
// deterministic and volume bounded by the run, not the world size.
func (w *World) TracerOf() obs.Tracer { return w.trace }

// MarkCostOnly makes the world's data operations charge time and move no
// data until its Run returns; package critter calls it for every clock
// profiler (NewClock, NewReference), which never reads a kernel's data.
// Call it from the ranks' bodies, before their first data operation; any
// number of ranks may. On a cost-only world:
//   - a collective charges each member exactly the virtual time and noise it
//     would otherwise and runs no round, so its members must enter it with
//     equal clocks, as after an untimed round such as Lane.Allreduce (a
//     member's own clock stands for the maximum the round would have taken);
//   - a Send or Isend posts its message with no payload, which the matching
//     Recv consumes for its arrival time alone, leaving the receive buffer
//     as it is;
//   - Workspace.Get hands out views of one scratch buffer shared by every
//     rank (see Workspace), and the libraries keep no storage of their own.
func (w *World) MarkCostOnly() { w.costOnly = true }

// CostOnly reports whether the world moves no data (see MarkCostOnly). A
// library reads it to skip what only data needs: filling inputs, and owning
// storage that the world's scratch can stand in for.
func (w *World) CostOnly() bool { return w.costOnly }

// Run executes body once per rank, passing each rank its world communicator,
// and returns when every rank has finished or the world has failed. The ranks
// are coroutines that one loop runs in turn, on a goroutine of its own (see
// loop). Run returns a non-nil error if a rank panicked or exited through
// runtime.Goexit (a t.Fatal in a rank body), or if the ranks deadlocked; the
// ranks still suspended then unwind via ErrAborted panics. When Run returns
// nil, a cost-only world's scratch goes back to the pool, and so does every
// fabric's array of mailboxes, emptied, queues and their capacity kept, for
// the next world on the pool to post into without regrowing them (one array
// per payload type; see fabricOf). After a failure all of it stays out of
// the pool, as the ranks' workspace chunks do. A World must not be reused
// after Run returns.
func (w *World) Run(body func(c *Comm)) error {
	w.dataFab, w.collFab = fabricOf[[]float64](w), fabricOf[collView](w)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.loop(body)
	}()
	<-done
	if !w.aborted {
		w.bufs.Put(w.scratch)
		w.scratch = nil
		for _, f := range w.fabrics {
			f.giveBoxes(w.bufs)
		}
		return nil
	}
	if err, ok := w.abortE.(error); ok {
		return fmt.Errorf("mpi: rank failure: %w", err)
	}
	return fmt.Errorf("mpi: rank failure: %v", w.abortE)
}

// loop runs every rank to its end from the run queue, which starts with the
// ranks in order. A rank runs until it finishes or waits; a failure (see
// rank) ends the loop, and so does a queue that empties with ranks
// unfinished, which is a deadlock. Stopping the ranks still suspended is
// deferred because next re-raises a rank's runtime.Goexit here: it ends this
// goroutine, which is why loop has one of its own, but not before every
// other rank has unwound.
func (w *World) loop(body func(c *Comm)) {
	next := make([]func() (struct{}, bool), w.size)
	stop := make([]func(), w.size)
	for r := range w.size {
		next[r], stop[r] = iter.Pull(w.rank(r, body))
		w.runq = append(w.runq, r)
	}
	defer func() {
		for _, s := range stop {
			s()
		}
	}()
	unfinished := w.size
	for len(w.runq) > 0 && !w.aborted {
		i := 0
		if w.pick != nil {
			i = w.pick(len(w.runq))
		}
		r := w.runq[i]
		w.runq = slices.Delete(w.runq, i, i+1)
		if _, ok := next[r](); !ok {
			unfinished--
		}
	}
	if unfinished > 0 && !w.aborted {
		w.abort(errDeadlock)
	}
}

// rank is world rank r's coroutine body: body on the rank's world
// communicator, with a failure — a panic, ErrAborted included, or a
// runtime.Goexit — recorded as the world's abort.
func (w *World) rank(r int, body func(c *Comm)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		s := w.ranks[r]
		s.yield = yield
		completed := false
		defer func() {
			if e := recover(); e != nil {
				w.abort(e)
			} else if !completed {
				w.abort(fmt.Errorf("rank %d exited abnormally", r))
			}
		}()
		s.ws.pool, s.ws.w = w.bufs, w
		s.world = w.worldComm(r)
		body(s.world)
		completed = true
		s.ws.drain()
	}
}

// wait suspends the calling rank until ready puts it back on the run queue.
// It panics with ErrAborted if the world stops the rank instead.
func (s *rankState) wait() {
	if !s.yield(struct{}{}) {
		panic(ErrAborted)
	}
}

// ready appends world rank r, which is suspended in wait, to the run queue.
func (w *World) ready(r int) { w.runq = append(w.runq, r) }

// abort records e as the world's failure unless an earlier one is recorded.
func (w *World) abort(e any) {
	if !w.aborted {
		w.aborted, w.abortE = true, e
	}
}

// worldComm builds rank's handle on the world communicator (context 0).
func (w *World) worldComm(rank int) *Comm {
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		w:     w,
		ctx:   0,
		rank:  rank,
		group: group,
		state: w.ranks[rank],
	}
}
