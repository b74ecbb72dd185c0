// Package service turns tuning runs into schedulable jobs: a Scheduler
// with a bounded queue and per-job contexts wraps the autotune Tuner,
// streams completion-ordered progress events (the sweeps Arenas.Run hands
// back), and shares a ProfileStore so later jobs warm-start from what
// earlier jobs on the same workload learned. Every job runs on the
// scheduler's own runners. On top of that sit two production
// capabilities: identical submissions coalesce onto one execution or its
// memoized result (this file and persist.go, through one fingerprint
// index), and finished jobs and merged profiles survive restarts through
// an optional durable store (persist.go). Every status change goes through
// one state machine (lifecycle.go). The HTTP layer (http.go, served by
// cmd/critter-serve) exposes it all as a versioned JSON API.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/obs"
	"critter/internal/sim"
	"critter/internal/store"
	"critter/internal/workload"
)

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event is one progress notification of a running job, delivered in
// completion order (the order the Tuner finishes sweeps, not grid order).
// It is also the SSE payload shape of GET /v1/jobs/{id}/events.
type Event struct {
	// Type is queued, started, sweep, lagged, done, failed, or canceled.
	// lagged is synthesized per subscriber by the SSE layer when
	// backpressure dropped events (it never appears in the stored history).
	Type string `json:"type"`
	// Job is the job ID the event belongs to.
	Job string `json:"job"`
	// Policy and Eps identify the completed sweep's grid cell (sweep
	// events only; empty/zero otherwise). Eps is always emitted — 0 is a
	// legitimate sweep tolerance (selective execution disabled), so
	// omitting it would leave that cell unidentifiable.
	Policy string  `json:"policy,omitempty"`
	Eps    float64 `json:"eps"`
	// Done and Total count completed vs scheduled sweeps.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Executed and Skipped are the completed sweep's kernel counts,
	// always emitted on sweep events (0 executed is information, not
	// absence).
	Executed int64 `json:"executed"`
	Skipped  int64 `json:"skipped"`
	// Memoized counts the skipped kernels whose skip decision was replayed
	// from the kernel's record in its profiler (critter's predCache) rather
	// than a fresh predictability test (a subset of Skipped; sweep events
	// only). Despite the name it counts neither critter.KernelMemo hits nor
	// this package's memo hits (memoHitLocked).
	Memoized int64 `json:"memoized"`
	// Error carries a sweep's or the job's failure, when there is one.
	Error string `json:"error,omitempty"`
	// Dropped counts the events a slow subscriber lost (lagged events
	// only).
	Dropped int `json:"dropped,omitempty"`
}

// JobStatus is the public snapshot of one job, and the JSON shape of
// GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Workload    string    `json:"workload"`
	Scale       string    `json:"scale"`
	Strategy    string    `json:"strategy"`
	Policies    []string  `json:"policies"`
	Eps         []float64 `json:"eps"`
	Seed        uint64    `json:"seed"`
	NoiseSigma  float64   `json:"noiseSigma"`
	Extrapolate bool      `json:"extrapolate"`
	// WarmStart reports whether the job actually applied a stored prior
	// (requested warm start AND the store had one for the workload).
	WarmStart bool `json:"warmStart"`
	// Fingerprint content-addresses the job's work; identical submissions
	// share it, and dedup coalesces on it.
	Fingerprint string `json:"fingerprint"`
	// Deduped marks a job that never executed itself: it coalesced onto
	// DedupOf's execution and shares that job's result envelope
	// byte-for-byte.
	Deduped     bool      `json:"deduped,omitempty"`
	DedupOf     string    `json:"dedupOf,omitempty"`
	SweepsDone  int       `json:"sweepsDone"`
	SweepsTotal int       `json:"sweepsTotal"`
	Error       string    `json:"error,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
}

// subscriber is one bounded event-stream attachment. Slow consumers lose
// events (dropped counts them) instead of blocking the scheduler.
type subscriber struct {
	ch      chan Event
	dropped int
}

// execution is one run of a job's work and everything that reports on it:
// the lifecycle, the event history, and the names — jobs — that share it.
// A dedup follower is a second name on its primary's execution. Every
// field is guarded by mu.
type execution struct {
	mu sync.Mutex
	lc lifecycle
	// events is the history; each reader sees it stamped with its own job
	// ID (history), and apply stamps live deliveries the same way.
	events []Event
	// names lists the jobs reporting this execution: the one that
	// submitted it, then its dedup followers in attach order.
	names  []*job
	cancel context.CancelFunc // set while running
	// trace collects the span events of a run (GET /v1/jobs/{id}/trace),
	// the last traceEvents of them. Nil for replayed and born-terminal
	// executions.
	trace *obs.Ring
}

// job is one submission: a name on an execution.
type job struct {
	id        string
	spec      *jobSpec // nil only for jobs replayed from the durable store
	submitted time.Time
	dedupOf   string // the job whose execution or memoized result this one shares
	// exec is guarded by the scheduler's mu: canceling a follower moves it
	// onto a private copy of its execution. subs and nextSub are guarded by
	// exec.mu.
	exec    *execution
	subs    map[int]*subscriber
	nextSub int
	// replay is the status snapshot of a job restored from the durable
	// store, returned verbatim by status (spec is nil for these).
	replay *JobStatus
	// hits counts the submissions this job's envelope answered as a memo
	// entry. Guarded by the scheduler's mu.
	hits int64
}

// apply moves x through next and publishes the step: its event joins the
// history and goes to every name's subscribers, stamped with that name's
// ID, and a terminal event then closes every stream. An illegal step
// changes nothing. Callers hold x.mu.
func (x *execution) apply(st step) (lifecycle, error) {
	lc, err := next(x.lc, st)
	if err != nil {
		return x.lc, err
	}
	x.lc = lc
	ev := st.ev
	ev.Done, ev.Total = lc.sweepsDone, lc.sweepsTotal
	if st.err != nil {
		ev.Error = st.err.Error()
	}
	x.events = append(x.events, ev)
	for _, n := range x.names {
		ev.Job = n.id
		for idx, sb := range n.subs {
			select {
			case sb.ch <- ev:
			default:
				sb.dropped++
			}
			if lc.state.terminal() {
				delete(n.subs, idx)
				close(sb.ch)
			}
		}
	}
	return lc, nil
}

// history returns the event history as job id reads it. Callers hold
// x.mu.
func (x *execution) history(id string) []Event {
	out := make([]Event, len(x.events))
	for i, ev := range x.events {
		ev.Job = id
		out[i] = ev
	}
	return out
}

// status snapshots the job as it reports lc, its execution's lifecycle.
func (j *job) status(lc lifecycle) JobStatus {
	if j.replay != nil {
		st := *j.replay
		st.Policies = append([]string(nil), st.Policies...)
		st.Eps = append([]float64(nil), st.Eps...)
		return st
	}
	st := JobStatus{
		ID:          j.id,
		State:       lc.state,
		Workload:    j.spec.workload.Name,
		Scale:       j.spec.scaleName,
		Strategy:    j.spec.strategy.Name(),
		Policies:    append([]string(nil), j.spec.policyNames...),
		Eps:         append([]float64(nil), j.spec.eps...),
		Seed:        j.spec.seed,
		NoiseSigma:  j.spec.noise,
		Extrapolate: j.spec.extrapolate,
		WarmStart:   lc.warmApplied,
		Fingerprint: j.spec.fingerprint,
		Deduped:     j.dedupOf != "",
		DedupOf:     j.dedupOf,
		SweepsDone:  lc.sweepsDone,
		SweepsTotal: lc.sweepsTotal,
		Submitted:   j.submitted,
		Started:     lc.started,
		Finished:    lc.finished,
	}
	if lc.err != nil {
		st.Error = lc.err.Error()
	}
	return st
}

// Config configures a Scheduler.
type Config struct {
	// Registry resolves job workloads; nil means the process-global
	// default registry.
	Registry *workload.Registry
	// Machine is the simulated machine model; its NoiseSigma is
	// overridden per job. The zero value means sim.DefaultMachine().
	Machine sim.Machine
	// QueueSize bounds the pending-job queue; Submit fails with
	// ErrQueueFull beyond it. 0 means 16.
	QueueSize int
	// Runners is how many jobs execute concurrently. 0 or less means 1:
	// jobs run strictly in submission order, each one's profile
	// warm-starting the next.
	Runners int
	// Workers bounds each job's sweep pool (Tuner.Workers); 0 means
	// GOMAXPROCS.
	Workers int
	// Durable persists finished jobs (envelopes included) and merged
	// profiles across restarts; nil means in-memory only. The scheduler
	// replays it on construction and appends on every completion. The
	// caller retains ownership and closes it after Close. See persist.go
	// for the exact restart semantics.
	Durable *store.Store
	// MaxHistory bounds how many finished (terminal) jobs are retained
	// for Status/Result lookups; beyond it the oldest terminal jobs are
	// evicted, envelopes, event histories and memo entries included, so a
	// long-running server cannot grow without bound. Queued and running
	// jobs never count against it. 0 means 256; negative disables eviction.
	MaxHistory int
	// Logf, when set, receives operational log lines (persistence
	// failures). nil discards them.
	Logf func(format string, args ...any)
}

// traceEvents bounds each executed job's in-memory trace ring: GET
// /v1/jobs/{id}/trace keeps its last traceEvents span events.
const traceEvents = 4096

// subBufferSize bounds each event subscriber's channel; a consumer that
// falls further behind loses intermediate events (flagged by the SSE layer
// with a lagged event) instead of blocking the scheduler.
const subBufferSize = 64

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity; the HTTP layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: scheduler is shutting down")

// ErrFinished is returned by Cancel for jobs already in a terminal state.
var ErrFinished = errors.New("service: job already finished")

// Scheduler executes submitted tuning jobs on a fixed set of runner
// goroutines, with a bounded queue, per-job cancellation, completion-order progress events, request
// dedup/memoization, durable history, and a shared warm-start profile
// store.
type Scheduler struct {
	cfg     Config
	reg     *workload.Registry
	store   *ProfileStore
	durable *store.Store
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// tunerRuns counts Tuner executions started by the runners — the
	// witness that dedup coalesced instead of re-running.
	tunerRuns atomic.Int64
	// arenas are the executor arenas the runners' jobs run on, kept for the
	// scheduler's lifetime: a job starts on buffers and memo tables an
	// earlier job grew.
	arenas autotune.Arenas

	// mu guards everything below, and every job's exec pointer; cond
	// (tied to mu) wakes runners when pending grows or the scheduler
	// closes. Lock order: mu before any execution's mu, never the reverse;
	// a second execution's mu only under mu (evictLocked).
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*job // the bounded queue of primaries; canceling a queued job removes it here
	jobs    map[string]*job
	order   []string
	nextID  int
	closed  bool
	// index maps a fingerprint to the job whose execution answers it: a
	// primary still queued or running, which identical submissions
	// coalesce onto, or a finished cold one — the memo — whose envelope
	// answers them at once.
	index map[string]*job

	// met is the registered instrument set (obs.go); never nil.
	met *schedMetrics

	// subBuffer is every Subscribe's live channel size: subBufferSize,
	// except where a test shrinks it before subscribing.
	subBuffer int

	// profileRec is the encoder and buffer of the durable profile record
	// (mergeProfile), both reused from job to job; its mu is held across
	// the encode and the store append.
	profileRec struct {
		mu  sync.Mutex
		buf []byte
		enc critter.ProfileEncoder
	}
}

// New starts a scheduler: its runner goroutines live until Close. When cfg.Durable is set, history and profiles are replayed from
// it before the first runner starts.
func New(cfg Config) *Scheduler {
	if cfg.Registry == nil {
		cfg.Registry = workload.Default()
	}
	if (cfg.Machine == sim.Machine{}) {
		cfg.Machine = sim.DefaultMachine()
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 16
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.MaxHistory == 0 {
		cfg.MaxHistory = 256
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		reg:     cfg.Registry,
		store:   NewProfileStore(),
		durable: cfg.Durable,
		baseCtx: ctx,
		stop:    stop,
		jobs:    make(map[string]*job),
		index:   make(map[string]*job),

		subBuffer: subBufferSize,
	}
	s.cond = sync.NewCond(&s.mu)
	s.met = newSchedMetrics(s, obs.NewRegistry())
	if s.durable != nil {
		s.durable.SetOnCompact(s.onCompact)
	}
	s.replayDurable()
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, x, ok := s.nextJob()
				if !ok {
					return
				}
				s.runJob(j, x)
			}
		}()
	}
	return s
}

// logf forwards to cfg.Logf when set.
func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// nextJob blocks until a pending job is available, and returns it with
// its execution, or until the scheduler is closed and drained.
func (s *Scheduler) nextJob() (*job, *execution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.pending) == 0 {
		return nil, nil, false
	}
	j := s.pending[0]
	s.pending = s.pending[1:]
	return j, j.exec, true
}

// Store returns the scheduler's shared profile store.
func (s *Scheduler) Store() *ProfileStore { return s.store }

// Metrics returns the registry carrying the scheduler's instrument set —
// the one behind GET /v1/metrics and GET /metrics.
func (s *Scheduler) Metrics() *obs.Registry { return s.met.reg }

// Trace returns the span events (oldest first) of a job's execution, so a
// dedup follower serves its primary's, and how many older events the
// bounded ring overwrote. The second result is false for unknown jobs; an
// execution without a trace (replayed from the durable store or born
// terminal) returns an empty slice.
func (s *Scheduler) Trace(id string) ([]obs.Event, uint64, bool) {
	_, x, ok := s.locked(id)
	if !ok {
		return nil, 0, false
	}
	ring := x.trace
	x.mu.Unlock()
	if ring == nil {
		return []obs.Event{}, 0, true
	}
	return ring.Events(), ring.Dropped(), true
}

// Registry returns the registry jobs resolve workloads against.
func (s *Scheduler) Registry() *workload.Registry { return s.reg }

// TunerRuns reports how many Tuner executions the runners have started.
// Deduped and memoized submissions never increment it.
func (s *Scheduler) TunerRuns() int64 { return s.tunerRuns.Load() }

// RetryAfterHint estimates, in whole seconds, how long a client should
// wait before resubmitting after ErrQueueFull. It is a coarse heuristic
// (queue depth over runner count), clamped to [1, 60].
func (s *Scheduler) RetryAfterHint() int {
	return min(max(s.cfg.QueueSize/s.cfg.Runners, 1), 60)
}

// ProfileInfo returns the encoded merged profile for a workload plus the
// time it was last durably persisted (zero when the scheduler has no
// durable store or the profile has not been written yet). ok is false when
// the workload has no profile; err is set when it has one that cannot be
// encoded.
func (s *Scheduler) ProfileInfo(name string) (data []byte, at time.Time, ok bool, err error) {
	p, at := s.store.get(name)
	if p == nil {
		return nil, time.Time{}, false, nil
	}
	if data, err = p.Encode(); err != nil {
		return nil, time.Time{}, true, fmt.Errorf("service: encode profile %s: %w", name, err)
	}
	return data, at, true, nil
}

// SubmitJSON parses, validates, and enqueues a JSON job submission (the
// body of POST /v1/jobs). Validation failures are returned verbatim for
// the HTTP layer's 400; ErrQueueFull maps to 429 and ErrClosed to 503.
func (s *Scheduler) SubmitJSON(data []byte) (JobStatus, error) {
	spec, err := ParseJobRequest(s.reg, data)
	if err != nil {
		return JobStatus{}, err
	}
	return s.submit(spec)
}

// submit enqueues a resolved spec, or — when an identical job is executing
// or memoized — coalesces onto it without consuming a queue slot.
func (s *Scheduler) submit(spec *jobSpec) (JobStatus, error) {
	now := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrClosed
	}

	if p, ok := s.index[spec.fingerprint]; ok {
		p.exec.mu.Lock()
		lc := p.exec.lc
		p.exec.mu.Unlock()
		// Terminal transitions run under s.mu, which is held: lc.state
		// cannot change behind this check.
		if !lc.state.terminal() {
			// A second name on the primary's execution: it reports the
			// primary's lifecycle and history under its own ID.
			_, st := s.addJobLocked(p.exec, spec, p.id, now)
			s.mu.Unlock()
			s.met.jobsSubmitted.Inc()
			s.met.dedupCoalesced.Inc()
			return st, nil
		}
		if st, recs, ok := s.memoHitLocked(p, lc, spec, now); ok {
			p.hits++
			evicted := s.evictLocked(nil)
			s.mu.Unlock()
			s.met.jobsSubmitted.Inc()
			s.met.memoHits.Inc()
			s.met.jobFinished(st.State)
			s.persistJobs(recs)
			s.deleteJobs(evicted)
			return st, nil
		}
	}

	// The pending list is the bound: running jobs have left it, and
	// canceled queued jobs are removed immediately, so capacity counts
	// only work that is genuinely waiting. Coalesced submissions above
	// never consume a slot.
	if len(s.pending) >= s.cfg.QueueSize {
		s.mu.Unlock()
		s.met.queueRejected.Inc()
		return JobStatus{}, ErrQueueFull
	}
	total := len(spec.policies) * len(spec.eps)
	x := &execution{
		lc:     lifecycle{state: StateQueued, sweepsTotal: total},
		events: []Event{{Type: "queued", Total: total}},
	}
	j, st := s.addJobLocked(x, spec, "", now)
	s.pending = append(s.pending, j)
	s.index[spec.fingerprint] = j
	s.cond.Signal()
	s.mu.Unlock()

	s.met.jobsSubmitted.Inc()
	s.met.memoMisses.Inc()
	return st, nil
}

// addJobLocked names a new submission on execution x and returns it with
// its first status. Callers hold s.mu.
func (s *Scheduler) addJobLocked(x *execution, spec *jobSpec, dedupOf string, now time.Time) (*job, JobStatus) {
	s.nextID++
	j := &job{id: fmt.Sprintf("job-%d", s.nextID), spec: spec, submitted: now, dedupOf: dedupOf, exec: x}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.names = append(x.names, j)
	return j, j.status(x.lc)
}

// memoHitLocked satisfies a submission from a memoized finished job d,
// whose lifecycle is lc: the new job is born terminal on an execution of
// its own, sharing the stored envelope. Caller holds s.mu; returns
// ok=false when the memoized job cannot back a result (no envelope
// survived), in which case the caller falls through to a real execution.
func (s *Scheduler) memoHitLocked(d *job, lc lifecycle, spec *jobSpec, now time.Time) (JobStatus, []jobRecord, bool) {
	env, total := lc.envelope, lc.sweepsTotal
	if env == nil {
		return JobStatus{}, nil, false
	}
	x := &execution{
		lc: lifecycle{state: StateDone, envelope: env, sweepsDone: total, sweepsTotal: total, started: now, finished: now},
		events: []Event{
			{Type: "queued", Total: total},
			{Type: "done", Done: total, Total: total},
		},
	}
	_, st := s.addJobLocked(x, spec, d.id, now)
	return st, []jobRecord{{Status: st, Envelope: env, Request: spec.req}}, true
}

// lockExec locks the execution a job names (s.mu strictly before the
// execution's mu, which it returns held).
func (s *Scheduler) lockExec(j *job) *execution {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.exec.mu.Lock()
	return j.exec
}

// locked resolves a job by ID and locks its execution; the caller unlocks
// x.mu.
func (s *Scheduler) locked(id string) (*job, *execution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, false
	}
	j.exec.mu.Lock()
	return j, j.exec, true
}

// evictLocked drops the oldest terminal jobs beyond MaxHistory from the
// job table, the submission order and the memo, and returns their IDs for
// deleteJobs. It runs in the s.mu section of the transition that made a
// job terminal, so a Wait that returns at that job's terminal event sees
// the history already pruned. Callers hold s.mu and held.mu (held may be
// nil): held's state is read as is, every other execution's mu is taken
// in turn. Two execution locks are held at once only here, under s.mu, so
// no other goroutine can hold one and wait for the other.
func (s *Scheduler) evictLocked(held *execution) []string {
	if s.cfg.MaxHistory < 0 {
		return nil
	}
	var terminal []string
	for _, id := range s.order {
		x := s.jobs[id].exec
		if x != held {
			x.mu.Lock()
		}
		if x.lc.state.terminal() {
			terminal = append(terminal, id)
		}
		if x != held {
			x.mu.Unlock()
		}
	}
	if len(terminal) <= s.cfg.MaxHistory {
		return nil
	}
	evicted := terminal[:len(terminal)-s.cfg.MaxHistory]
	evict := make(map[string]bool, len(evicted))
	for _, id := range evicted {
		evict[id] = true
		delete(s.jobs, id)
	}
	indexed := len(s.index)
	maps.DeleteFunc(s.index, func(_ string, j *job) bool { return evict[j.id] })
	s.met.memoEvictions.Add(int64(indexed - len(s.index)))
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return evict[id] })
	return evicted
}

// deleteJobs drops evicted jobs' durable records, outside every lock.
func (s *Scheduler) deleteJobs(evicted []string) {
	if s.durable == nil {
		return
	}
	for _, id := range evicted {
		if err := s.durable.Delete(kindJob, id, time.Now()); err != nil {
			s.logf("service: durable delete %s: %v", id, err)
		}
	}
}

// Status snapshots a job.
func (s *Scheduler) Status(id string) (JobStatus, bool) {
	j, x, ok := s.locked(id)
	if !ok {
		return JobStatus{}, false
	}
	defer x.mu.Unlock()
	return j.status(x.lc), true
}

// Jobs snapshots every job in submission order (replayed history first).
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Status(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// Result returns a finished job's envelope — the full self-describing
// result of the run, partial grids included for failed jobs — as the
// compact JSON it was encoded to once at the job's terminal transition;
// the durable record and a restarted scheduler hold the same bytes. It is
// nil until the job reaches a terminal state (and stays nil for jobs
// canceled before they started). The bytes are shared: callers must not
// modify them.
func (s *Scheduler) Result(id string) ([]byte, bool) {
	_, x, ok := s.locked(id)
	if !ok {
		return nil, false
	}
	defer x.mu.Unlock()
	return x.lc.envelope, true
}

// Cancel stops a job: a queued job is marked canceled and leaves the
// queue; a running job's context is canceled, aborting its sweeps at the
// next configuration boundary; a deduped follower detaches alone onto a private copy of the execution, leaving
// the shared execution running for everyone else — canceling the primary,
// by contrast, cancels the whole coalesced group. Canceling a finished job
// returns ErrFinished.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	x := j.exec
	x.mu.Lock()
	switch {
	case x.lc.state.terminal():
		st := j.status(x.lc)
		x.mu.Unlock()
		s.mu.Unlock()
		return st, ErrFinished
	case x.names[0] != j:
		// A follower: it leaves the shared execution for a copy of its
		// lifecycle and history, where it is canceled alone.
		x.names = slices.DeleteFunc(x.names, func(n *job) bool { return n == j })
		c := &execution{lc: x.lc, events: slices.Clone(x.events), names: []*job{j}}
		x.mu.Unlock()
		c.mu.Lock()
		j.exec, x = c, c
	case x.cancel != nil:
		// Running: runJob lands the terminal transition when the stream
		// drains; this just triggers it.
		x.cancel()
		st := j.status(x.lc)
		x.mu.Unlock()
		s.mu.Unlock()
		return st, nil
	default:
		// Queued: the job frees its queue slot now, not when a busy runner
		// would pop it.
		s.pending = slices.DeleteFunc(s.pending, func(p *job) bool { return p == j })
	}
	// Not terminal (checked above under the same locks), so next accepts.
	recs, evicted, _ := s.finishLocked(x, step{ev: Event{Type: "canceled"}, at: time.Now(), err: context.Canceled})
	x.mu.Unlock()
	s.mu.Unlock()
	s.finished(recs, evicted)
	return recs[0].Status, nil
}

// Subscription is one live attachment to a job's event stream, returned by
// Subscribe.
type Subscription struct {
	// Past replays every event emitted before the subscription attached.
	Past []Event
	// C streams subsequent events. It is nil when the job was already
	// terminal (Past is then the complete history), and is closed after
	// the terminal event is delivered — or earlier, without one, when the
	// consumer was too slow to receive it; check Dropped on close.
	C <-chan Event

	s   *Scheduler
	j   *job
	sb  *subscriber
	idx int
}

// Dropped reports how many events this subscription lost to backpressure.
func (sub *Subscription) Dropped() int {
	if sub.sb == nil {
		return 0
	}
	x := sub.s.lockExec(sub.j)
	defer x.mu.Unlock()
	return sub.sb.dropped
}

// Close detaches the subscription. It is safe to call more than once and
// after the job finished.
func (sub *Subscription) Close() {
	if sub.sb == nil {
		return
	}
	x := sub.s.lockExec(sub.j)
	defer x.mu.Unlock()
	if _, still := sub.j.subs[sub.idx]; still {
		delete(sub.j.subs, sub.idx)
		close(sub.sb.ch)
	}
}

// Subscribe attaches to a job's event stream: a replay of past events plus
// a bounded live channel for the rest. Slow consumers lose intermediate
// events rather than blocking the scheduler — Subscription.Dropped counts
// the losses, and the SSE layer surfaces them as a lagged event.
func (s *Scheduler) Subscribe(id string) (*Subscription, bool) {
	return s.subscribe(id, s.subBuffer)
}

// subscribe is Subscribe with a live channel of buf slots.
func (s *Scheduler) subscribe(id string, buf int) (*Subscription, bool) {
	j, x, found := s.locked(id)
	if !found {
		return nil, false
	}
	defer x.mu.Unlock()
	sub := &Subscription{Past: x.history(j.id), s: s, j: j}
	if x.lc.state.terminal() {
		return sub, true
	}
	if j.subs == nil {
		j.subs = make(map[int]*subscriber)
	}
	sb := &subscriber{ch: make(chan Event, buf)}
	sub.sb, sub.idx, sub.C = sb, j.nextSub, sb.ch
	j.subs[j.nextSub] = sb
	j.nextSub++
	return sub, true
}

// Wait blocks until the job reaches a terminal state (or ctx is done) and
// returns its final status. It waits on a subscription, whose channel
// closes at the job's terminal event — a canceled follower's included. The
// history pruning that event triggers has happened by then; a job it
// evicted still reports its final status here.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	sub, ok := s.subscribe(id, 0)
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	defer sub.Close()
	for sub.C != nil {
		select {
		case _, open := <-sub.C:
			if !open {
				sub.C = nil
			}
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		}
	}
	x := s.lockExec(sub.j)
	defer x.mu.Unlock()
	return sub.j.status(x.lc), nil
}

// Close shuts the scheduler down gracefully: no new submissions, queued
// and running jobs are given until ctx is done to finish, then everything
// still running is canceled. Close returns when every runner has exited.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.stop() // cancels every running job's context
		<-finished
		return ctx.Err()
	}
}

// prior returns the stored profile a job warm-starts from, or nil.
func (s *Scheduler) prior(spec *jobSpec) *critter.Profile {
	if !spec.warm {
		return nil
	}
	return s.store.Get(spec.workload.Name)
}

// runJob executes one popped job end to end on the calling runner.
func (s *Scheduler) runJob(j *job, x *execution) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	spec := j.spec
	prior := s.prior(spec)
	ring := obs.NewRing(traceEvents, obs.WallClock())

	x.mu.Lock()
	if _, err := x.apply(step{ev: Event{Type: "started"}, at: time.Now(), warm: prior != nil}); err != nil {
		// Canceled while queued: never started.
		x.mu.Unlock()
		return
	}
	x.cancel = cancel
	x.trace = ring
	x.mu.Unlock()

	// A run shows its workload's kernel counters from the start, zero
	// included.
	name := spec.workload.Name
	s.met.kernelsExecuted.With(name)
	s.met.kernelsSkipped.With(name)
	s.met.kernelsMemoized.With(name)
	ring.Emit(obs.Event{Kind: obs.KindJob, Phase: obs.PhaseBegin, Name: name, Job: j.id})

	s.tunerRuns.Add(1)
	env, learned, err := executeSpec(ctx, spec, s.cfg.Machine, s.cfg.Workers, &s.arenas, prior, ring, func(ev Event) {
		x.mu.Lock()
		err := s.sweepLocked(x, ev)
		x.mu.Unlock()
		if err != nil {
			s.logf("service: %s: %v", j.id, err)
		}
	})
	end := obs.Event{Kind: obs.KindJob, Phase: obs.PhaseEnd, Name: name, Job: j.id}
	if err != nil {
		end.Error = err.Error()
	}
	ring.Emit(end)

	// The result is encoded once, here, and the envelope not kept: the
	// bytes are what GET /result serves and the durable record embeds. It
	// is encoded before the merge, which builds in the profile a one-sweep
	// envelope shares (learnedProfile).
	result, encErr := json.Marshal(env)

	// What the job learned feeds the store, partial grids included: a
	// timed-out run's completed sweeps are still valid statistics.
	s.mergeProfile(name, learned)

	typ := "done"
	switch {
	case encErr != nil:
		// A result that cannot be served fails the job.
		typ, err = "failed", errors.Join(err, fmt.Errorf("service: encode envelope: %w", encErr))
		result = nil
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		typ = "canceled"
	default:
		typ = "failed"
	}
	if err := s.finish(x, step{ev: Event{Type: typ}, at: time.Now(), err: err, envelope: result}); err != nil {
		s.logf("service: %s: %v", j.id, err)
	}
}

// sweepLocked folds one completed sweep into x: next judges it, and an
// accepted sweep is published and its kernel counts feed the per-workload
// counters. Callers hold x.mu.
func (s *Scheduler) sweepLocked(x *execution, ev Event) error {
	if _, err := x.apply(step{ev: ev}); err != nil {
		return err
	}
	name := x.names[0].spec.workload.Name
	s.met.kernelsExecuted.With(name).Add(ev.Executed)
	s.met.kernelsSkipped.With(name).Add(ev.Skipped)
	s.met.kernelsMemoized.With(name).Add(ev.Memoized)
	return nil
}

// finishLocked lands a terminal step on x and, in the same s.mu section,
// settles x's fingerprint index entry: it stays as the memo entry or goes,
// so a concurrent submit finds a live execution or the memo, never a
// window in which an identical job would re-execute. It also prunes the
// history (evictLocked). It returns one durable record per name on x and
// the evicted IDs, for finished. Callers hold s.mu and x.mu.
func (s *Scheduler) finishLocked(x *execution, st step) ([]jobRecord, []string, error) {
	lc, err := x.apply(st)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]jobRecord, len(x.names))
	for i, n := range x.names {
		recs[i] = jobRecord{Status: n.status(lc), Envelope: lc.envelope, Request: n.spec.req}
	}
	// Memoization applies only to deterministic runs: warm start off (a
	// warm run's output depends on the evolving profile store) and a clean
	// finish. Any other finished execution leaves the index.
	p := x.names[0]
	if s.index[p.spec.fingerprint] == p && (lc.state != StateDone || p.spec.warm) {
		delete(s.index, p.spec.fingerprint)
	}
	return recs, s.evictLocked(x), nil
}

// finished observes a terminal transition outside every lock: the state
// counters once per name, the duration once per execution, the durable
// records, and the durable deletes of the jobs the transition evicted.
func (s *Scheduler) finished(recs []jobRecord, evicted []string) {
	st := recs[0].Status
	for range recs {
		s.met.jobFinished(st.State)
	}
	if !st.Started.IsZero() {
		s.met.jobDuration.Observe(st.Finished.Sub(st.Started).Seconds())
	}
	s.persistJobs(recs)
	s.deleteJobs(evicted)
}

// finish is finishLocked then finished, for a caller holding no lock.
func (s *Scheduler) finish(x *execution, st step) error {
	s.mu.Lock()
	x.mu.Lock()
	recs, evicted, err := s.finishLocked(x, st)
	x.mu.Unlock()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.finished(recs, evicted)
	return nil
}

// mergeProfile folds a finished run's learned profile into the shared
// store, which takes ownership of it, and persists the merged result
// durably.
func (s *Scheduler) mergeProfile(name string, p *critter.Profile) {
	if p == nil {
		return
	}
	s.store.Merge(name, p)
	if s.durable == nil {
		return
	}
	// The record is read under the encoder's lock, so the last append for
	// a workload is never older than its last merge.
	rec := &s.profileRec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	merged := s.store.Get(name)
	if merged == nil {
		return
	}
	// Compact, where Profile.Encode indents: the store frames compact JSON
	// and would only strip the whitespace again. The version stamp goes on
	// a shallow copy, as in Encode; merged is shared and read-only. The
	// encoder writes what json.Marshal does into the record's buffer, which
	// is reused from job to job: the store's Append copies the bytes it
	// keeps.
	stamped := *merged
	stamped.SchemaVersion = critter.ProfileSchemaVersion
	data, err := rec.enc.Append(rec.buf[:0], &stamped)
	if err != nil {
		s.logf("service: encode profile %s: %v", name, err)
		return
	}
	rec.buf = data
	now := time.Now()
	if err := s.durable.Append(store.Record{Kind: kindProfile, Key: name, At: now, Data: data}); err != nil {
		s.logf("service: persist profile %s: %v", name, err)
		return
	}
	s.store.markPersisted(name, now)
}
