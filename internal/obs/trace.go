package obs

// Dual-clock run tracing. A Tracer receives span events from every layer
// of a tuning run — job (service/CLI), sweep and config (autotune),
// kernel-propagation rounds (critter/mpi) — and the two clock fields keep
// the determinism contract intact: Virtual is stamped by the emitting
// layer from the simulation's per-rank virtual clock, while WallNanos is
// stamped *by the tracer itself* (Ring/JSONL) from an injected Clock, so
// deterministic layers never read real time. A nil Tracer is the default
// everywhere and costs a single pointer comparison on the hot path.

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceSchemaVersion identifies the JSONL trace file schema; it is the
// first line of every file NewJSONL writes.
const TraceSchemaVersion = 1

// Span event kinds.
const (
	KindJob      = "job"      // one tuning job / CLI run
	KindSweep    = "sweep"    // one (policy, eps) grid cell
	KindConfig   = "config"   // one configuration of a sweep
	KindStrategy = "strategy" // one strategy planning round
	KindRound    = "round"    // one kernel-propagation round (collective or p2p)
)

// Span event phases.
const (
	PhaseBegin = "begin"
	PhaseEnd   = "end"
	PhasePoint = "point" // instantaneous event, no matching begin/end
)

// Event is one trace record. The Kind/Phase pair forms spans (begin/end)
// or instants (point); the remaining fields identify where in the run
// hierarchy the event sits and what it measured. Zero-valued fields are
// omitted from JSON, so round events stay one short line each.
type Event struct {
	// Seq is the tracer-assigned sequence number, unique and ascending
	// within one tracer.
	Seq uint64 `json:"seq"`
	// Kind and Phase classify the event (Kind* and Phase* constants).
	Kind  string `json:"kind"`
	Phase string `json:"phase"`
	// Name carries the kind-specific subject: the workload for job
	// events, the collective/p2p op for round events.
	Name string `json:"name,omitempty"`
	// Job is the owning job ID when the run belongs to a service job.
	Job string `json:"job,omitempty"`
	// Policy and Eps identify the sweep's grid cell (sweep and deeper).
	Policy string  `json:"policy,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	// Config is the 1-based configuration ordinal within its sweep;
	// Round the strategy planning round it belongs to; Configs a
	// strategy round's planned configuration count.
	Config  int `json:"config,omitempty"`
	Round   int `json:"round,omitempty"`
	Configs int `json:"configs,omitempty"`
	// Virtual is the emitting rank's virtual-clock reading in seconds.
	// FullVirtual carries the reference (selective execution off)
	// virtual duration on config/sweep end events.
	Virtual     float64 `json:"virtual,omitempty"`
	FullVirtual float64 `json:"fullVirtual,omitempty"`
	// WallNanos is a wall-clock timestamp in nanoseconds since the Unix
	// epoch, stamped by the receiving tracer when it was built with a
	// Clock; 0 when tracing without wall time.
	WallNanos int64 `json:"wallNanos,omitempty"`
	// Executed and Skipped are cumulative kernel counts on end events.
	Executed int64 `json:"executed,omitempty"`
	Skipped  int64 `json:"skipped,omitempty"`
	// AllocBytes is the heap growth attributed to the span (sweep end
	// events, sampled by the executor when tracing is enabled).
	AllocBytes uint64 `json:"allocBytes,omitempty"`
	// Error carries the span's failure, when there is one.
	Error string `json:"error,omitempty"`
}

// Tracer receives trace events. Implementations must be safe for
// concurrent Emit calls: sweeps run on a worker pool. A nil Tracer means
// tracing is off; every emitting layer nil-checks before building an
// Event, which keeps the disabled path free of allocations.
type Tracer interface {
	Emit(Event)
}

// ringChunk is how many event slots a Ring allocates at a time. A ring is
// sized for the busiest run it may trace, while most emit a few hundred
// events, so its storage grows a chunk at a time as slots are first written.
const ringChunk = 256

// slot is one Ring entry, 40 bytes. A round point event — nearly all of
// what a traced run emits — is stored inline: its name, virtual clock and
// wall stamp. Any other event (every non-round kind, and a round event with
// other fields set) is boxed whole behind box, which is non-nil only then.
// Seq is not stored: it follows from the slot's position.
type slot struct {
	name    string
	virtual float64
	wall    int64
	box     *Event
}

// put stores ev, which carries its final WallNanos, in s; its Seq is
// dropped.
func (s *slot) put(ev *Event) {
	if inline(ev) {
		*s = slot{name: ev.Name, virtual: ev.Virtual, wall: ev.WallNanos}
		return
	}
	b := s.box // a box the slot held is reused: Events hands out copies
	if b == nil {
		b = new(Event)
	}
	*b = *ev
	*s = slot{box: b}
}

// inline reports whether a slot reproduces ev exactly, Seq aside: a round
// point event with no field set but Name, Virtual and WallNanos. A field added to Event must be checked here;
// TestRingKeepsEveryField fails until it is.
func inline(ev *Event) bool {
	return ev.Kind == KindRound && ev.Phase == PhasePoint &&
		ev.Job == "" && ev.Policy == "" && ev.Eps == 0 && ev.Config == 0 && ev.Round == 0 &&
		ev.Configs == 0 && ev.FullVirtual == 0 && ev.Executed == 0 && ev.Skipped == 0 &&
		ev.AllocBytes == 0 && ev.Error == ""
}

// event reconstructs the event s holds with sequence number seq.
func (s *slot) event(seq uint64) Event {
	if s.box != nil {
		ev := *s.box
		ev.Seq = seq
		return ev
	}
	return Event{Seq: seq, Kind: KindRound, Phase: PhasePoint, Name: s.name, Virtual: s.virtual, WallNanos: s.wall}
}

// Ring is a bounded in-memory tracer: the last capacity events, oldest
// dropped first. It is the service layer's per-job tracer behind
// GET /v1/jobs/{id}/trace. Its slots live in chunks of ringChunk, each made
// when its first slot is written; the last is cut to the capacity, so a
// full ring holds exactly capacity slots. A slot (see slot) holds a round
// point event in 40 bytes with no allocation of its own and boxes anything
// else; Events decodes the slots back into the exact events emitted, with
// Seq counted back from the newest.
type Ring struct {
	clock Clock

	mu       sync.Mutex
	seq      uint64
	capacity int
	chunks   [][]slot // slot i is chunks[i/ringChunk][i%ringChunk]
	next     int
	full     bool
	dropped  uint64
}

// NewRing returns a ring holding at most capacity events (minimum 1).
// clock, when non-nil, stamps WallNanos on every event.
func NewRing(capacity int, clock Clock) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{clock: clock, capacity: capacity, chunks: make([][]slot, (capacity+ringChunk-1)/ringChunk)}
}

// Emit implements Tracer.
func (r *Ring) Emit(ev Event) {
	r.mu.Lock()
	r.seq++
	if r.clock != nil {
		ev.WallNanos = r.clock().UnixNano()
	}
	if r.full {
		r.dropped++
	}
	c := &r.chunks[r.next/ringChunk]
	if *c == nil {
		// Slots are first written in order, so r.next starts this chunk.
		*c = make([]slot, min(ringChunk, r.capacity-r.next))
	}
	(*c)[r.next%ringChunk].put(&ev)
	r.next++
	if r.next == r.capacity {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Events snapshots the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, i := r.next, 0
	if r.full {
		n, i = r.capacity, r.next
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	seq := r.seq - uint64(n)
	for k := range out {
		seq++
		out[k] = r.chunks[i/ringChunk][i%ringChunk].event(seq)
		if i++; i == r.capacity {
			i = 0
		}
	}
	return out
}

// Dropped reports how many events the ring has overwritten.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// jsonlHeader is the first line of a JSONL trace file.
type jsonlHeader struct {
	TraceSchemaVersion int `json:"traceSchemaVersion"`
}

// JSONL streams events to a writer as one JSON object per line, prefixed
// by a {"traceSchemaVersion":1} header line. Write errors are sticky and
// reported by Err; Emit never fails the traced run.
type JSONL struct {
	clock Clock

	mu  sync.Mutex
	seq uint64
	enc *json.Encoder
	err error
}

// NewJSONL returns a tracer writing JSON lines to w. clock, when non-nil,
// stamps WallNanos on every event.
func NewJSONL(w io.Writer, clock Clock) *JSONL {
	t := &JSONL{clock: clock, enc: json.NewEncoder(w)}
	t.err = t.enc.Encode(jsonlHeader{TraceSchemaVersion: TraceSchemaVersion})
	return t
}

// Emit implements Tracer.
func (t *JSONL) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	ev.Seq = t.seq
	if t.clock != nil {
		ev.WallNanos = t.clock().UnixNano()
	}
	t.err = t.enc.Encode(ev)
}

// Count reports how many events have been written.
func (t *JSONL) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Err returns the first write error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
