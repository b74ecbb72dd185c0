// Package service turns tuning runs into schedulable jobs: a Scheduler
// with a bounded queue and per-job contexts wraps the autotune Tuner,
// streams completion-ordered progress events (reusing Tuner.Stream), and
// shares a ProfileStore so later jobs warm-start from what earlier jobs on
// the same workload learned. On top of that sit three production
// capabilities: identical submissions coalesce onto one execution
// (dedup.go semantics live in this file and persist.go), finished jobs and
// merged profiles survive restarts through an optional durable store
// (persist.go), and queued jobs can be leased to remote worker processes
// with heartbeat-driven requeue on worker death (lease.go, worker.go). The
// HTTP layer (http.go, served by cmd/critter-serve) exposes it all as a
// versioned JSON API.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
// completion order (the order Tuner.Stream yields sweeps, not grid order).
// It is also the SSE payload shape of GET /v1/jobs/{id}/events.
type Event struct {
	// Type is queued, started, sweep, requeued, lagged, done, failed, or
	// canceled. requeued means the job's worker lease expired and it went
	// back to the queue; lagged is synthesized per subscriber by the SSE
	// layer when backpressure dropped events (it never appears in the
	// stored history).
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
	// hits of this package's result memo (memo.go).
	Memoized int64 `json:"memoized"`
	// Error carries a sweep's or the job's failure, when there is one.
	Error string `json:"error,omitempty"`
	// Worker names the worker process involved: the leasing worker on
	// started/sweep events of leased jobs, the dead worker on requeued
	// events.
	Worker string `json:"worker,omitempty"`
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
	Deduped bool   `json:"deduped,omitempty"`
	DedupOf string `json:"dedupOf,omitempty"`
	// Worker names the worker process currently holding the job's lease,
	// and Attempts counts execution attempts (lease expiries requeue and
	// increment it).
	Worker      string    `json:"worker,omitempty"`
	Attempts    int       `json:"attempts,omitempty"`
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

// job is the scheduler's internal record of one submission.
type job struct {
	id   string
	spec *jobSpec // nil only for jobs replayed from the durable store

	mu          sync.Mutex
	state       State
	err         error
	envelope    *autotune.Envelope
	events      []Event
	subs        map[int]*subscriber
	nextSub     int
	cancel      context.CancelFunc // set while running locally
	warmApplied bool
	sweepsDone  int
	sweepsTotal int
	submitted   time.Time
	started     time.Time
	finished    time.Time
	done        chan struct{} // closed on terminal state

	// Dedup wiring: a follower mirrors its primary's events and shares
	// its envelope; a primary fans out to its live followers.
	deduped   bool
	dedupOf   string
	primary   *job   // followers: set until the primary terminates
	followers []*job // primaries: live followers to mirror into

	// Lease wiring for jobs executing on a remote worker.
	worker        string
	leaseDeadline time.Time
	attempts      int

	// trace collects the job's span events while it executes on a local
	// runner (GET /v1/jobs/{id}/trace). Nil for leased, replayed, and
	// born-terminal jobs, and when Config.TraceEvents disables tracing.
	trace *obs.Ring

	// replay is the status snapshot of a job restored from the durable
	// store, returned verbatim by statusLocked (spec is nil for these).
	replay *JobStatus
}

// deliverLocked appends an event to this job's history and offers it to
// every subscriber, dropping for any whose bounded buffer is full. Callers
// hold j.mu.
func (j *job) deliverLocked(ev Event) {
	j.events = append(j.events, ev)
	for _, sb := range j.subs {
		select {
		case sb.ch <- ev:
		default:
			sb.dropped++
		}
	}
}

// emitLocked delivers an event and mirrors it — job ID rewritten, progress
// fields copied — into every live follower. Callers hold j.mu; follower
// locks nest inside (lock order: primary.mu before follower.mu).
func (j *job) emitLocked(ev Event) {
	j.deliverLocked(ev)
	for _, f := range j.followers {
		f.mu.Lock()
		f.state = j.state
		f.warmApplied = j.warmApplied
		f.sweepsDone = j.sweepsDone
		f.started = j.started
		f.worker = j.worker
		f.attempts = j.attempts
		fv := ev
		fv.Job = f.id
		f.deliverLocked(fv)
		f.mu.Unlock()
	}
}

// closeSubsLocked detaches and closes every subscriber channel after the
// terminal event has been emitted. Callers hold j.mu.
func (j *job) closeSubsLocked() {
	for idx, sb := range j.subs {
		delete(j.subs, idx)
		close(sb.ch)
	}
}

// statusLocked snapshots the job. Callers hold j.mu.
func (j *job) statusLocked() JobStatus {
	if j.replay != nil {
		st := *j.replay
		st.Policies = append([]string(nil), st.Policies...)
		st.Eps = append([]float64(nil), st.Eps...)
		return st
	}
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Workload:    j.spec.workload.Name(),
		Scale:       j.spec.scaleName,
		Strategy:    j.spec.strategy.Name(),
		Policies:    append([]string(nil), j.spec.policyNames...),
		Eps:         append([]float64(nil), j.spec.eps...),
		Seed:        j.spec.seed,
		NoiseSigma:  j.spec.noise,
		Extrapolate: j.spec.extrapolate,
		WarmStart:   j.warmApplied,
		Fingerprint: j.spec.fingerprint,
		Deduped:     j.deduped,
		DedupOf:     j.dedupOf,
		Worker:      j.worker,
		Attempts:    j.attempts,
		SweepsDone:  j.sweepsDone,
		SweepsTotal: j.sweepsTotal,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
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
	// Runners is how many jobs execute concurrently in this process. 0
	// means 1: jobs run strictly in submission order, each one's profile
	// warm-starting the next. Negative means no local runners at all —
	// jobs execute only when remote workers lease them.
	Runners int
	// Workers bounds each job's sweep pool (Tuner.Workers); 0 means
	// GOMAXPROCS.
	Workers int
	// Store accumulates learned profiles across jobs; nil means a fresh
	// store private to this scheduler.
	Store *ProfileStore
	// Durable persists finished jobs (envelopes included) and merged
	// profiles across restarts; nil means in-memory only. The scheduler
	// replays it on construction and appends on every completion. The
	// caller retains ownership and closes it after Close. See persist.go
	// for the exact restart semantics.
	Durable *store.Store
	// MaxHistory bounds how many finished (terminal) jobs are retained
	// for Status/Result lookups; beyond it the oldest terminal jobs are
	// evicted, envelopes and event histories included, so a long-running
	// server cannot grow without bound. Queued and running jobs never
	// count against it. 0 means 256; negative disables eviction.
	MaxHistory int
	// LeaseTTL bounds how long a worker may hold a leased job between
	// heartbeats before the janitor requeues it. 0 means 10s.
	LeaseTTL time.Duration
	// SubBuffer bounds each event subscriber's channel; a consumer that
	// falls further behind loses intermediate events (flagged by the SSE
	// layer with a lagged event) instead of blocking the scheduler. 0
	// means 64.
	SubBuffer int
	// Logf, when set, receives operational log lines (persistence
	// failures, lease requeues). nil discards them.
	Logf func(format string, args ...any)
	// Metrics is the registry the scheduler registers its instrument set
	// on (served by the HTTP layer at /v1/metrics and /metrics); nil means
	// a private registry, still reachable through Scheduler.Metrics. The
	// registry must not already hold the scheduler's metric names.
	Metrics *obs.Registry
	// MaxMemo bounds the memoized-result cache (fingerprint -> finished
	// job); beyond it the least recently used entries are evicted, so
	// fingerprint-varying clients cannot grow the cache without bound.
	// 0 means 1024; negative disables memoization.
	MaxMemo int
	// TraceEvents bounds each locally executed job's in-memory trace ring
	// (GET /v1/jobs/{id}/trace keeps the last TraceEvents span events). 0
	// means 4096; negative disables per-job tracing.
	TraceEvents int
}

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity; the HTTP layer maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("service: job queue is full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("service: scheduler is shutting down")

// ErrFinished is returned by Cancel for jobs already in a terminal state.
var ErrFinished = errors.New("service: job already finished")

// Scheduler executes submitted tuning jobs on a fixed set of runner
// goroutines and any number of remote workers, with a bounded queue,
// per-job cancellation, completion-order progress events, request
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

	// tunerRuns counts Tuner executions started by this process's
	// runners — the witness that dedup coalesced instead of re-running.
	tunerRuns atomic.Int64
	// arenas are the executor arenas the runners' jobs run on, kept for the
	// scheduler's lifetime: a job starts on buffers and memo tables an
	// earlier job grew.
	arenas autotune.Arenas

	// mu guards everything below; cond (tied to mu) wakes runners when
	// pending grows or the scheduler closes. Lock order: mu before any
	// job's mu, a primary job's mu before its followers' — never the
	// reverse.
	mu          sync.Mutex
	cond        *sync.Cond
	pending     []*job // the bounded queue; canceling a queued job removes it here
	jobs        map[string]*job
	order       []string
	nextID      int
	closed      bool
	inflight    map[string]*job      // fingerprint -> executing primary (dedup on)
	memo        *memoCache           // fingerprint -> finished cold job (dedup on, warm off)
	persisted   map[string]time.Time // workload -> last durable profile write
	workers     map[string]*workerState
	nextWorker  int
	stopJanitor chan struct{}

	// met is the registered instrument set (obs.go); never nil.
	met *schedMetrics
}

// New starts a scheduler: its runner and janitor goroutines live until
// Close. When cfg.Durable is set, history and profiles are replayed from
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
	if cfg.Runners == 0 {
		cfg.Runners = 1
	}
	if cfg.Runners < 0 {
		cfg.Runners = 0
	}
	if cfg.Store == nil {
		cfg.Store = NewProfileStore()
	}
	if cfg.MaxHistory == 0 {
		cfg.MaxHistory = 256
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.SubBuffer <= 0 {
		cfg.SubBuffer = 64
	}
	if cfg.MaxMemo == 0 {
		cfg.MaxMemo = 1024
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.TraceEvents == 0 {
		cfg.TraceEvents = 4096
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:         cfg,
		reg:         cfg.Registry,
		store:       cfg.Store,
		durable:     cfg.Durable,
		baseCtx:     ctx,
		stop:        stop,
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		memo:        newMemoCache(cfg.MaxMemo),
		persisted:   make(map[string]time.Time),
		workers:     make(map[string]*workerState),
		stopJanitor: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.met = newSchedMetrics(s, cfg.Metrics)
	if s.durable != nil {
		s.durable.SetOnCompact(s.onCompact)
	}
	s.replayDurable()
	for i := 0; i < cfg.Runners; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.nextJob()
				if !ok {
					return
				}
				s.runJob(j)
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.janitor()
	}()
	return s
}

// logf forwards to cfg.Logf when set.
func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// nextJob blocks until a pending job is available or the scheduler is
// closed and drained.
func (s *Scheduler) nextJob() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.pending) == 0 {
		return nil, false
	}
	j := s.pending[0]
	s.pending = s.pending[1:]
	return j, true
}

// Store returns the scheduler's shared profile store.
func (s *Scheduler) Store() *ProfileStore { return s.store }

// Metrics returns the registry carrying the scheduler's instrument set —
// the one behind GET /v1/metrics and GET /metrics.
func (s *Scheduler) Metrics() *obs.Registry { return s.met.reg }

// Trace returns a job's collected span events (oldest first) and how many
// older events its bounded ring overwrote. The second result is false for
// unknown jobs; a known job without a trace (leased to a worker, replayed
// from the durable store, born terminal, or tracing disabled) returns an
// empty slice.
func (s *Scheduler) Trace(id string) ([]obs.Event, uint64, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, 0, false
	}
	j.mu.Lock()
	ring := j.trace
	j.mu.Unlock()
	if ring == nil {
		return []obs.Event{}, 0, true
	}
	return ring.Events(), ring.Dropped(), true
}

// Registry returns the registry jobs resolve workloads against.
func (s *Scheduler) Registry() *workload.Registry { return s.reg }

// TunerRuns reports how many Tuner executions this process's runners have
// started. Deduped and memoized submissions never increment it.
func (s *Scheduler) TunerRuns() int64 { return s.tunerRuns.Load() }

// RetryAfterHint estimates, in whole seconds, how long a client should
// wait before resubmitting after ErrQueueFull. It is a coarse heuristic
// (queue depth over runner count), clamped to [1, 60].
func (s *Scheduler) RetryAfterHint() int {
	runners := s.cfg.Runners
	if runners <= 0 {
		// Lease-only scheduler: drain rate depends on remote workers we
		// cannot see from here.
		return 5
	}
	hint := s.cfg.QueueSize / runners
	if hint < 1 {
		hint = 1
	}
	if hint > 60 {
		hint = 60
	}
	return hint
}

// ProfileInfo returns the encoded merged profile for a workload plus the
// time it was last durably persisted (zero when the scheduler has no
// durable store or the profile has not been written yet).
func (s *Scheduler) ProfileInfo(name string) ([]byte, time.Time, bool) {
	p := s.store.Get(name)
	if p == nil {
		return nil, time.Time{}, false
	}
	data, err := p.Encode()
	if err != nil {
		return nil, time.Time{}, false
	}
	s.mu.Lock()
	at := s.persisted[name]
	s.mu.Unlock()
	return data, at, true
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

// submit enqueues a resolved spec, or — when dedup is enabled and an
// identical job is executing or memoized — coalesces onto it without
// consuming a queue slot.
func (s *Scheduler) submit(spec *jobSpec) (JobStatus, error) {
	now := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrClosed
	}

	if spec.dedup {
		if p, ok := s.inflight[spec.fingerprint]; ok {
			st, recs := s.attachFollowerLocked(p, spec, now)
			s.mu.Unlock()
			s.met.jobsSubmitted.Inc()
			s.met.dedupCoalesced.Inc()
			if st.State.terminal() {
				s.met.jobFinished(st.State)
			}
			if len(recs) > 0 {
				s.persistJobs(recs)
			}
			s.pruneHistory()
			return st, nil
		}
		if doneID, ok := s.memo.get(spec.fingerprint); ok {
			if d, live := s.jobs[doneID]; live {
				if st, recs, ok := s.memoHitLocked(d, spec, now); ok {
					s.memo.hit(spec.fingerprint)
					s.mu.Unlock()
					s.met.jobsSubmitted.Inc()
					s.met.memoHits.Inc()
					s.met.jobFinished(st.State)
					s.persistJobs(recs)
					s.pruneHistory()
					return st, nil
				}
			}
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
	j := &job{
		spec:        spec,
		state:       StateQueued,
		subs:        make(map[int]*subscriber),
		sweepsTotal: len(spec.policies) * len(spec.eps),
		submitted:   now,
		done:        make(chan struct{}),
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	// Record the queued event before the job becomes reachable: once it
	// is on the queue a runner may start it immediately, and "started"
	// must never precede "queued" in the event history. The job is still
	// private here, so no lock is needed for the append.
	j.events = append(j.events, Event{Type: "queued", Job: j.id, Total: j.sweepsTotal})
	s.pending = append(s.pending, j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if spec.dedup {
		s.inflight[spec.fingerprint] = j
	}
	s.cond.Signal()
	s.mu.Unlock()

	s.met.jobsSubmitted.Inc()
	if spec.dedup {
		s.met.memoMisses.Inc()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), nil
}

// attachFollowerLocked coalesces a new submission onto an executing
// primary: the follower replays the primary's history under its own ID,
// mirrors subsequent events, and shares the final envelope. Caller holds
// s.mu. Returns persistence records only when the primary turned out to be
// terminal already (the follower is then born terminal and must persist
// itself; live followers persist when the primary terminates).
func (s *Scheduler) attachFollowerLocked(p *job, spec *jobSpec, now time.Time) (JobStatus, []jobRecord) {
	f := &job{
		spec:      spec,
		subs:      make(map[int]*subscriber),
		submitted: now,
		done:      make(chan struct{}),
		deduped:   true,
	}
	s.nextID++
	f.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[f.id] = f
	s.order = append(s.order, f.id)

	p.mu.Lock()
	defer p.mu.Unlock()
	f.dedupOf = p.id
	f.state = p.state
	f.err = p.err
	f.warmApplied = p.warmApplied
	f.sweepsDone = p.sweepsDone
	f.sweepsTotal = p.sweepsTotal
	f.started = p.started
	f.worker = p.worker
	f.attempts = p.attempts
	// Replay the primary's history under the follower's identity.
	for _, ev := range p.events {
		ev.Job = f.id
		f.events = append(f.events, ev)
	}
	if p.state.terminal() {
		// The primary finished between the inflight lookup and acquiring
		// its lock: the follower is born terminal, sharing the final
		// envelope (immutable once terminal, so serialization stays
		// byte-identical).
		f.envelope = p.envelope
		f.finished = now
		close(f.done)
		f.mu.Lock()
		st := f.statusLocked()
		f.mu.Unlock()
		return st, []jobRecord{{Status: st, Envelope: f.envelope, Request: spec.req}}
	}
	f.primary = p
	p.followers = append(p.followers, f)
	f.mu.Lock()
	st := f.statusLocked()
	f.mu.Unlock()
	return st, nil
}

// memoHitLocked satisfies a submission from a memoized finished job: the
// new job is born terminal, sharing the stored envelope. Caller holds
// s.mu; returns ok=false when the memoized job cannot back a result (no
// envelope survived), in which case the caller falls through to a real
// execution.
func (s *Scheduler) memoHitLocked(d *job, spec *jobSpec, now time.Time) (JobStatus, []jobRecord, bool) {
	d.mu.Lock()
	env := d.envelope
	total := d.sweepsTotal
	dID := d.id
	d.mu.Unlock()
	if env == nil {
		return JobStatus{}, nil, false
	}

	f := &job{
		spec:        spec,
		state:       StateDone,
		envelope:    env,
		subs:        make(map[int]*subscriber),
		sweepsDone:  total,
		sweepsTotal: total,
		submitted:   now,
		started:     now,
		finished:    now,
		done:        make(chan struct{}),
		deduped:     true,
		dedupOf:     dID,
	}
	s.nextID++
	f.id = fmt.Sprintf("job-%d", s.nextID)
	f.events = []Event{
		{Type: "queued", Job: f.id, Total: total},
		{Type: "done", Job: f.id, Done: total, Total: total},
	}
	close(f.done)
	s.jobs[f.id] = f
	s.order = append(s.order, f.id)
	f.mu.Lock()
	st := f.statusLocked()
	f.mu.Unlock()
	return st, []jobRecord{{Status: st, Envelope: env, Request: spec.req}}, true
}

// lookup resolves a job by ID.
func (s *Scheduler) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// pruneHistory evicts the oldest terminal jobs beyond MaxHistory, cleaning
// their memo entries and durable records along the way. Called after a job
// reaches a terminal state, outside any job lock (s.mu is taken first,
// each candidate's j.mu second — the scheduler's lock order).
func (s *Scheduler) pruneHistory() {
	if s.cfg.MaxHistory < 0 {
		return
	}
	s.mu.Lock()
	var terminal []string
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		isTerminal := j.state.terminal()
		j.mu.Unlock()
		if isTerminal {
			terminal = append(terminal, id)
		}
	}
	if len(terminal) <= s.cfg.MaxHistory {
		s.mu.Unlock()
		return
	}
	evict := make(map[string]bool, len(terminal)-s.cfg.MaxHistory)
	evicted := make([]string, 0, len(terminal)-s.cfg.MaxHistory)
	for _, id := range terminal[:len(terminal)-s.cfg.MaxHistory] {
		evict[id] = true
		evicted = append(evicted, id)
		delete(s.jobs, id)
	}
	for _, id := range evicted {
		s.memo.removeJob(id)
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if !evict[id] {
			kept = append(kept, id)
		}
	}
	s.order = kept
	s.mu.Unlock()

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
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(), true
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

// Result returns a finished job's envelope: the full self-describing
// result of the run, partial grids included for failed jobs. It is nil
// until the job reaches a terminal state (and stays nil for jobs canceled
// before they started).
func (s *Scheduler) Result(id string) (*autotune.Envelope, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.envelope, true
}

// Cancel stops a job: a queued job is marked canceled and skipped when a
// runner pops it; a locally running job's context is canceled, aborting
// its sweeps at the next configuration boundary; a leased job is
// terminated immediately (the worker's later posts get ErrLeaseLost); a
// deduped follower detaches alone, leaving the shared execution running
// for everyone else — canceling the primary, by contrast, cancels the
// whole coalesced group. Canceling a finished job returns ErrFinished.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	// Pull the job out of the pending queue first (s.mu strictly before
	// j.mu): a canceled queued job must free its queue slot immediately,
	// not when a busy runner eventually pops and discards it.
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()

	j.mu.Lock()
	switch {
	case j.state.terminal():
		st := j.statusLocked()
		j.mu.Unlock()
		return st, ErrFinished
	case j.primary != nil:
		// Live follower: detach from the primary, then cancel alone.
		p := j.primary
		j.mu.Unlock()
		p.mu.Lock()
		for i, f := range p.followers {
			if f == j {
				p.followers = append(p.followers[:i], p.followers[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
	case j.state == StateRunning && j.cancel != nil:
		// Locally running: the terminal transition happens in runJob when
		// the stream drains; this just triggers it.
		j.cancel()
		st := j.statusLocked()
		j.mu.Unlock()
		return st, nil
	default:
		// Queued, or leased to a worker: terminate directly below.
		j.mu.Unlock()
	}

	if !s.terminate(j, StateCanceled, context.Canceled, nil, "canceled") {
		// Lost the race with completion.
		st, _ := s.Status(id)
		return st, ErrFinished
	}
	st, _ := s.Status(id)
	return st, nil
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

	j   *job
	sb  *subscriber
	idx int
}

// Dropped reports how many events this subscription lost to backpressure.
func (sub *Subscription) Dropped() int {
	if sub.sb == nil {
		return 0
	}
	sub.j.mu.Lock()
	defer sub.j.mu.Unlock()
	return sub.sb.dropped
}

// Close detaches the subscription. It is safe to call more than once and
// after the job finished.
func (sub *Subscription) Close() {
	if sub.sb == nil {
		return
	}
	sub.j.mu.Lock()
	defer sub.j.mu.Unlock()
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
	j, found := s.lookup(id)
	if !found {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	sub := &Subscription{Past: append([]Event(nil), j.events...), j: j}
	if j.state.terminal() {
		return sub, true
	}
	sb := &subscriber{ch: make(chan Event, s.cfg.SubBuffer)}
	sub.sb = sb
	sub.idx = j.nextSub
	j.nextSub++
	j.subs[sub.idx] = sb
	sub.C = sb.ch
	return sub, true
}

// Wait blocks until the job reaches a terminal state (or ctx is done) and
// returns its final status.
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
	st, _ := s.Status(id)
	return st, nil
}

// Close shuts the scheduler down gracefully: no new submissions, queued
// and running jobs are given until ctx is done to finish, then everything
// still running is canceled. Close returns when every runner has exited.
// Jobs leased to remote workers are not waited for; their result posts
// after Close fail with ErrLeaseLost or a closed listener.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stopJanitor)
		s.cond.Broadcast()
	}
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

// runJob executes one popped job end to end on the calling runner.
func (s *Scheduler) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	spec := j.spec
	var prior *critter.Profile
	if spec.warm {
		prior = s.store.Get(spec.workload.Name())
	}
	var ring *obs.Ring
	if s.cfg.TraceEvents > 0 {
		ring = obs.NewRing(s.cfg.TraceEvents, obs.WallClock())
	}

	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while queued: never started.
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.warmApplied = prior != nil
	j.attempts++
	j.started = time.Now()
	j.trace = ring
	j.emitLocked(Event{Type: "started", Job: j.id, Total: j.sweepsTotal})
	j.mu.Unlock()

	// The interface must stay untyped-nil when tracing is off: a typed-nil
	// *Ring would slip past the executor's nil checks and panic on Emit.
	var tracer obs.Tracer
	if ring != nil {
		tracer = ring
		ring.Emit(obs.Event{Kind: obs.KindJob, Phase: obs.PhaseBegin, Name: spec.workload.Name(), Job: j.id})
	}
	kernExec := s.met.kernelsExecuted.With(spec.workload.Name())
	kernSkip := s.met.kernelsSkipped.With(spec.workload.Name())
	kernMemo := s.met.kernelsMemoized.With(spec.workload.Name())

	s.tunerRuns.Add(1)
	env, merged, err := executeSpec(ctx, spec, s.cfg.Machine, s.cfg.Workers, &s.arenas, prior, tracer, func(sw autotune.SweepResult, swErr error) {
		if sw.Executed > 0 {
			kernExec.Add(sw.Executed)
		}
		if sw.Skipped > 0 {
			kernSkip.Add(sw.Skipped)
		}
		if sw.KernelsMemoized > 0 {
			kernMemo.Add(sw.KernelsMemoized)
		}
		j.mu.Lock()
		j.sweepsDone++
		ev := Event{
			Type: "sweep", Job: j.id,
			Policy: sw.Policy.String(), Eps: sw.Eps,
			Done: j.sweepsDone, Total: j.sweepsTotal,
			Executed: sw.Executed, Skipped: sw.Skipped,
			Memoized: sw.KernelsMemoized,
		}
		if swErr != nil {
			ev.Error = swErr.Error()
		}
		j.emitLocked(ev)
		j.mu.Unlock()
	})
	if ring != nil {
		ev := obs.Event{Kind: obs.KindJob, Phase: obs.PhaseEnd, Name: spec.workload.Name(), Job: j.id}
		if err != nil {
			ev.Error = err.Error()
		}
		ring.Emit(ev)
	}

	// What the job learned feeds the store, partial grids included: a
	// timed-out run's completed sweeps are still valid statistics.
	s.mergeProfile(spec.workload.Name(), merged)

	state := StateDone
	typ := "done"
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state, typ = StateCanceled, "canceled"
	default:
		state, typ = StateFailed, "failed"
	}
	s.terminate(j, state, err, env, typ)
}

// terminate drives a job (and its live followers) to a terminal state,
// updates the dedup maps, persists the outcome, and prunes history. It is
// the single terminal-transition path — runners, lease completion, the
// janitor's give-up, and cancellation all funnel through it. Reports false
// when the job was already terminal. Callers must not hold s.mu or any
// job lock.
func (s *Scheduler) terminate(j *job, state State, err error, env *autotune.Envelope, typ string) bool {
	now := time.Now()

	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = err
	j.envelope = env
	// j.worker stays: the terminal status records where the job ran. The
	// janitor skips terminal jobs, so the lease bookkeeping is moot.
	j.leaseDeadline = time.Time{}
	j.finished = now
	ev := Event{Type: typ, Job: j.id, Done: j.sweepsDone, Total: j.sweepsTotal}
	if err != nil {
		ev.Error = err.Error()
	}
	j.deliverLocked(ev)
	j.closeSubsLocked()
	close(j.done)
	worker := j.worker
	started := j.started
	followers := j.followers
	j.followers = nil
	recs := []jobRecord{{Status: j.statusLocked(), Envelope: env, Request: j.persistRequest()}}
	j.mu.Unlock()

	// Followers share the outcome and the envelope pointer: the envelope
	// is immutable once terminal, so every follower's serialized result
	// is byte-identical to the primary's.
	transitioned := 0
	for _, f := range followers {
		f.mu.Lock()
		if f.state.terminal() {
			f.mu.Unlock()
			continue
		}
		transitioned++
		f.state = state
		f.err = err
		f.envelope = env
		f.worker = worker
		f.sweepsDone = ev.Done
		f.finished = now
		f.primary = nil
		fv := ev
		fv.Job = f.id
		f.deliverLocked(fv)
		f.closeSubsLocked()
		close(f.done)
		recs = append(recs, jobRecord{Status: f.statusLocked(), Envelope: env, Request: f.persistRequest()})
		f.mu.Unlock()
	}

	// One s.mu section clears the in-flight registration and installs the
	// memo entry atomically, so a concurrent submit sees exactly one of
	// them — there is no window where an identical job would re-execute.
	// Memoization applies only to deterministic runs: dedup on, warm
	// start off (a warm run's output depends on the evolving profile
	// store), and a clean finish.
	s.mu.Lock()
	if j.spec != nil && j.spec.dedup {
		if s.inflight[j.spec.fingerprint] == j {
			delete(s.inflight, j.spec.fingerprint)
		}
		if state == StateDone && !j.spec.warm && env != nil {
			if evicted := s.memo.put(j.spec.fingerprint, j.id); evicted > 0 {
				s.met.memoEvictions.Add(int64(evicted))
			}
		}
	}
	for _, w := range s.workers {
		delete(w.jobs, j.id)
	}
	s.mu.Unlock()

	s.met.jobFinished(state)
	for i := 0; i < transitioned; i++ {
		s.met.jobFinished(state)
	}
	if !started.IsZero() {
		s.met.jobDuration.Observe(now.Sub(started).Seconds())
	}

	s.persistJobs(recs)
	s.pruneHistory()
	return true
}

// persistRequest returns the job's normalized request for the durable
// record. Callers hold j.mu.
func (j *job) persistRequest() JobRequest {
	if j.spec == nil {
		return JobRequest{}
	}
	return j.spec.req
}

// mergeProfile folds a finished run's learned profile into the shared
// store and persists the merged result durably.
func (s *Scheduler) mergeProfile(name string, p *critter.Profile) {
	if p == nil {
		return
	}
	s.store.Merge(name, p)
	if s.durable == nil {
		return
	}
	merged := s.store.Get(name)
	if merged == nil {
		return
	}
	// Compact, where Profile.Encode indents: the store frames compact JSON
	// and would only strip the whitespace again. The version stamp goes on
	// a shallow copy, as in Encode; merged is shared and read-only.
	stamped := *merged
	stamped.SchemaVersion = critter.ProfileSchemaVersion
	data, err := json.Marshal(&stamped)
	if err != nil {
		s.logf("service: encode profile %s: %v", name, err)
		return
	}
	now := time.Now()
	if err := s.durable.Append(store.Record{Kind: kindProfile, Key: name, At: now, Data: data}); err != nil {
		s.logf("service: persist profile %s: %v", name, err)
		return
	}
	s.mu.Lock()
	s.persisted[name] = now
	s.mu.Unlock()
}

// placeSweep stores a completed sweep into its (policy, eps) grid cell.
// With duplicate tolerances in the eps list the first unfilled matching
// cell wins — identical cells run identical worlds, so the values are
// interchangeable.
func placeSweep(res *autotune.Result, filled [][]bool, sw autotune.SweepResult) {
	for pi, pol := range res.Policies {
		if pol != sw.Policy {
			continue
		}
		for ei, eps := range res.EpsList {
			if eps == sw.Eps && !filled[pi][ei] {
				res.Sweeps[pi][ei] = sw
				filled[pi][ei] = true
				return
			}
		}
	}
}
