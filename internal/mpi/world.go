// Package mpi implements a deterministic, in-process message-passing runtime
// with MPI-like semantics and virtual time. It is the substrate on which the
// Critter profiler and the distributed factorization libraries run.
//
// Ranks execute as goroutines. Each rank owns a virtual clock (package sim);
// point-to-point messages and collectives advance clocks according to an
// alpha-beta-gamma machine model with deterministic per-rank noise, so a
// fixed seed reproduces identical virtual timings regardless of goroutine
// scheduling.
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
// All traffic runs on sharded typed fabrics (fabric.go): one mailbox lock
// per destination rank and a fixed set of collective-round shards per
// payload type, with no world-global lock on any communication path.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"critter/internal/obs"
	"critter/internal/sim"
)

// ErrAborted is the panic value raised in every rank when some rank panics,
// so a single failure cannot deadlock the remaining ranks.
var ErrAborted = fmt.Errorf("mpi: world aborted due to failure on another rank")

// errDeadlock is the abort cause when every unfinished rank is blocked at a
// fabric wait site, so no wakeup can ever arrive. Run returns it (wrapped)
// instead of hanging.
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

	// fabrics maps a payload type (reflect.Type) to its *fabric[T]; the
	// data plane's two are cached: point-to-point payloads travel at
	// T = []float64 (dataFab), data collectives meet at T = collView
	// (collFab). fabricMu serializes fabric creation (lookups are lock-free).
	fabrics  sync.Map
	fabricMu sync.Mutex
	dataFab  *fabric[[]float64]
	collFab  *fabric[collView]

	// bufs recycles data-plane payload buffers across messages (and, via
	// the sweep executor's per-worker scratch, across the worlds a worker
	// runs). NewWorld makes the world's own; never nil. See BufPool.
	bufs *BufPool

	// trace, when non-nil, receives span events from the layers running
	// on this world (the profiler's propagation rounds). See SetTracer.
	trace obs.Tracer

	// Abort machinery: aborted flips once, abortE records the first
	// failure, and wakers lists every condition variable a rank may block
	// on so abort can wake the whole world.
	aborted atomic.Bool
	abortMu sync.Mutex
	abortE  any
	wakers  []waker

	// idle counts the ranks that cannot run: parked at a fabric wait site
	// (low 32 bits) and finished (high 32 bits). See park.
	idle atomic.Int64
}

// finishedOne is one finished rank in World.idle; a parked rank counts 1.
const finishedOne = 1 << 32

// waker pairs a condition variable with the lock its waiters hold, so abort
// can broadcast without losing a wakeup.
type waker struct {
	mu   *sync.Mutex
	cond *sync.Cond
}

// rankState is the per-rank private state, confined to the rank's
// goroutine.
type rankState struct {
	worldRank int
	clock     sim.Clock
	rng       *sim.RNG
	// splitScratch is the member order this rank sorts in when it is the
	// last arriver of a Split round (see finishSplit).
	splitScratch []int
	// collScratch is the buffer this rank reduces or concatenates into when
	// it is the last arriver of a data collective (see Comm.scratch).
	collScratch []float64
	// ws is the rank's scratch stack for the workload running on it (see
	// Workspace); Run wires it to the world's buffer pool.
	ws Workspace
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
		bufs:    NewBufPool(),
	}
	for r := 0; r < size; r++ {
		w.ranks[r] = &rankState{
			worldRank: r,
			rng:       sim.NewRNG(sim.Mix(seed, uint64(r), 0x6d7069)),
		}
	}
	w.dataFab = fabricOf[[]float64](w)
	w.collFab = fabricOf[collView](w)
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
// per worker), not across concurrently running worlds' lifetimes — the pool
// itself is safe for concurrent use, so sharing is a throughput choice, not a
// safety one.
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

// registerWakers records condition variables the abort broadcast must
// reach.
func (w *World) registerWakers(ws []waker) {
	w.abortMu.Lock()
	w.wakers = append(w.wakers, ws...)
	w.abortMu.Unlock()
}

// Run executes body once per rank, concurrently, passing each rank its world
// communicator. It returns a non-nil error if any rank panicked; the
// remaining ranks are woken and unwound via ErrAborted panics.
// A World must not be reused after Run returns.
func (w *World) Run(body func(c *Comm)) error {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			completed := false
			defer func() {
				if e := recover(); e != nil {
					w.abort(e)
				} else if !completed {
					// The goroutine exited via runtime.Goexit (e.g.
					// t.Fatal inside a rank body); peers must not be
					// left blocked.
					w.abort(fmt.Errorf("rank %d exited abnormally", rank))
				}
				// After the abort bookkeeping, so a rank's own failure wins
				// over the deadlock its exit leaves behind.
				if w.deadlocked(w.idle.Add(finishedOne)) {
					w.abort(errDeadlock)
				}
			}()
			ws := &w.ranks[rank].ws
			ws.pool = w.bufs
			body(w.worldComm(rank))
			completed = true
			ws.drain()
		}(r)
	}
	wg.Wait()
	if w.aborted.Load() {
		w.abortMu.Lock()
		defer w.abortMu.Unlock()
		if err, ok := w.abortE.(error); ok {
			return fmt.Errorf("mpi: rank failure: %w", err)
		}
		return fmt.Errorf("mpi: rank failure: %v", w.abortE)
	}
	return nil
}

// abort records the first failure and wakes every blocked rank: the flag is
// published first, then each registered condition variable is broadcast
// under its own lock so a rank between its abort check and its Wait cannot
// miss the wakeup.
func (w *World) abort(e any) {
	w.abortMu.Lock()
	if !w.aborted.Load() {
		w.abortE = e
		w.aborted.Store(true)
	}
	wakers := w.wakers
	w.abortMu.Unlock()
	for _, wk := range wakers {
		wk.mu.Lock()
		wk.cond.Broadcast()
		wk.mu.Unlock()
	}
}

// deadlocked reports whether idle, a value of w.idle, accounts for every
// rank with at least one of them parked: nobody is left to post the message
// or join the round a parked rank waits for.
func (w *World) deadlocked(idle int64) bool {
	parked, finished := int(uint32(idle)), int(idle>>32)
	return parked > 0 && parked+finished == w.size
}

// park counts the calling rank as blocked, just before it waits on the
// condition variable of inner, which it holds. Whoever later makes the
// rank's wait predicate true — the post of the message it waits for, the
// last arrival of its round — uncounts it under the same lock, so the count
// never includes a rank that can proceed. The rank that completes the count aborts the
// world with errDeadlock (dropping inner, which abort must take to
// broadcast) and unwinds like every other rank.
func (w *World) park(inner *sync.Mutex) {
	if w.deadlocked(w.idle.Add(1)) {
		inner.Unlock()
		w.abort(errDeadlock)
		inner.Lock()
		panic(ErrAborted)
	}
}

// unpark uncounts n ranks parked by park; the caller holds their lock.
func (w *World) unpark(n int) { w.idle.Add(-int64(n)) }

// checkAbort panics with ErrAborted if the world has failed; the panic
// unwinds through the caller's defers. Callers blocked on a condition
// variable hold its lock around both this check and the Wait, which —
// together with abort's lock-and-broadcast — makes the wakeup reliable.
func (w *World) checkAbort() {
	if w.aborted.Load() {
		panic(ErrAborted)
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
