package service

// The multi-node surface: remote workers (critter-serve -mode=worker)
// register here, poll for job leases, stream sweep events back (every post
// doubles as a heartbeat that extends the lease), and post final results.
// Liveness is deadline-driven: the janitor goroutine requeues any leased
// job whose deadline passed — at the FRONT of the queue, so recovered work
// runs next — and a job that burns maxLeaseAttempts leases is failed
// rather than requeued forever. A dead worker therefore degrades
// throughput; it never loses a job.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
)

// maxLeaseAttempts bounds how many times a job is handed out before the
// scheduler gives up and fails it: a job that kills three workers in a row
// is more likely poison than unlucky.
const maxLeaseAttempts = 3

// ErrUnknownWorker is returned for a worker ID the scheduler does not
// know — never registered, or forgotten after going quiet. The worker's
// recovery is to register again; the HTTP layer maps it to 404.
var ErrUnknownWorker = errors.New("service: unknown worker (register again)")

// ErrLeaseLost is returned when a worker posts against a job it no longer
// holds: the lease expired and the job was requeued, completed elsewhere,
// or canceled. The worker should drop the job; the HTTP layer maps it to
// 409.
var ErrLeaseLost = errors.New("service: lease no longer held")

// workerState is the scheduler's view of one registered worker.
type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	jobs     map[string]bool // job IDs currently leased to this worker
}

// WorkerStatus is one entry of GET /v1/workers.
type WorkerStatus struct {
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	LastSeen time.Time `json:"lastSeen"`
	Jobs     []string  `json:"jobs,omitempty"`
}

// LeaseGrant is one leased job: the normalized request a worker re-resolves
// into the identical spec, plus the warm-start prior the scheduler would
// have applied locally (encoded profile), plus the lease length.
type LeaseGrant struct {
	Job         string          `json:"job"`
	Request     JobRequest      `json:"request"`
	Prior       json.RawMessage `json:"prior,omitempty"`
	LeaseMillis int64           `json:"leaseMillis"`
}

// RegisterWorker admits a worker and returns its ID plus the lease TTL it
// must heartbeat within.
func (s *Scheduler) RegisterWorker(name string) (string, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", 0, ErrClosed
	}
	s.nextWorker++
	id := fmt.Sprintf("w-%d", s.nextWorker)
	s.workers[id] = &workerState{id: id, name: name, lastSeen: time.Now(), jobs: make(map[string]bool)}
	return id, s.cfg.LeaseTTL, nil
}

// Workers snapshots every registered worker, ordered by ID.
func (s *Scheduler) Workers() []WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerStatus, 0, len(s.workers))
	for _, w := range s.workers {
		ws := WorkerStatus{ID: w.id, Name: w.name, LastSeen: w.lastSeen}
		for id := range w.jobs {
			ws.Jobs = append(ws.Jobs, id)
		}
		sort.Strings(ws.Jobs)
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// LeaseJob hands the worker the next queued job, or (nil, nil) when the
// queue is empty. The job transitions to running with a lease deadline;
// the grant carries everything the worker needs to execute it remotely.
func (s *Scheduler) LeaseJob(workerID string) (*LeaseGrant, error) {
	now := time.Now()
	s.mu.Lock()
	w, ok := s.workers[workerID]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now

	for len(s.pending) > 0 {
		j := s.pending[0]
		s.pending = s.pending[1:]
		prior := s.prior(j.spec)
		x := j.exec
		x.mu.Lock()
		_, err := x.apply(step{ev: Event{Type: "started", Worker: workerID}, at: now, warm: prior != nil})
		if err != nil {
			// Not queued any more; a runner popping it would skip it too.
			x.mu.Unlock()
			continue
		}
		x.leaseDeadline = now.Add(s.cfg.LeaseTTL)
		x.mu.Unlock()
		w.jobs[j.id] = true
		s.mu.Unlock()

		grant := &LeaseGrant{Job: j.id, Request: j.spec.req, LeaseMillis: leaseMillis(s.cfg.LeaseTTL)}
		if prior != nil {
			if data, err := prior.Encode(); err == nil {
				grant.Prior = data
			}
		}
		return grant, nil
	}
	s.mu.Unlock()
	return nil, nil
}

// leaseMillis renders a TTL for the wire, at least 1. Milliseconds, not
// seconds: rounding a sub-second TTL up to whole seconds would tell the
// worker to heartbeat slower than the lease actually expires.
func leaseMillis(ttl time.Duration) int64 {
	ms := ttl.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// leased resolves a worker's post against a job it leased and returns the
// job's execution, locked: ErrUnknownWorker for a worker the scheduler
// does not know, ErrLeaseLost when the worker no longer holds the job.
func (s *Scheduler) leased(workerID, jobID string, now time.Time) (*execution, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	j, ok := s.jobs[jobID]
	if !ok {
		return nil, ErrLeaseLost
	}
	x := j.exec
	x.mu.Lock()
	if x.lc.state != StateRunning || x.lc.worker != workerID {
		x.mu.Unlock()
		return nil, ErrLeaseLost
	}
	return x, nil
}

// ExtendLease is the worker heartbeat: it extends the job's lease deadline
// and folds any completed-sweep events into the job's stream (Done/Total
// are recomputed server-side; an empty batch is a pure heartbeat). A batch
// the job cannot take — more sweeps than its grid holds — is rejected
// whole, with the job and its deadline unchanged.
func (s *Scheduler) ExtendLease(workerID, jobID string, events []Event) error {
	now := time.Now()
	x, err := s.leased(workerID, jobID, now)
	if err != nil {
		return err
	}
	defer x.mu.Unlock()
	var sweeps []Event
	for _, ev := range events {
		if ev.Type == "sweep" {
			sweeps = append(sweeps, Event{
				Type:   "sweep",
				Policy: ev.Policy, Eps: ev.Eps,
				Executed: ev.Executed, Skipped: ev.Skipped,
				Memoized: ev.Memoized,
				Error:    ev.Error,
				Worker:   workerID,
			})
		}
	}
	if err := s.sweepLocked(x, sweeps...); err != nil {
		return err
	}
	x.leaseDeadline = now.Add(s.cfg.LeaseTTL)
	return nil
}

// CompleteLease finishes a leased job with the worker's result: the
// envelope it produced, the merged profile it learned (shipped separately
// because sweep profiles never serialize into envelopes), and an error
// message for failed runs. A result with neither an envelope nor an error
// fails the job: there would be nothing to serve.
func (s *Scheduler) CompleteLease(workerID, jobID string, envData, profileData []byte, errMsg string) error {
	now := time.Now()
	x, err := s.leased(workerID, jobID, now)
	if err != nil {
		return err
	}
	// Take ownership against the janitor: push the deadline far out so the
	// expiry scan skips this job until the terminal transition below.
	x.leaseDeadline = now.Add(24 * time.Hour)
	workloadName := x.names[0].spec.workload.Name()
	x.mu.Unlock()

	var env *autotune.Envelope
	if len(envData) > 0 {
		e, err := autotune.DecodeEnvelope(envData)
		if err != nil && errMsg == "" {
			errMsg = fmt.Sprintf("worker returned undecodable envelope: %v", err)
		}
		env = e
	}
	if env == nil && errMsg == "" {
		errMsg = "worker returned no envelope"
	}
	if len(profileData) > 0 {
		p, err := critter.DecodeProfile(profileData)
		if err != nil {
			s.logf("service: worker %s profile for %s: %v", workerID, jobID, err)
		} else {
			s.mergeProfile(workloadName, p)
		}
	}
	st := step{ev: Event{Type: "done"}, at: time.Now(), envelope: env}
	if errMsg != "" {
		st.ev.Type, st.err = "failed", errors.New(errMsg)
	}
	// A cancel that landed since the check above wins; the worker is done
	// either way.
	_ = s.finish(x, st)
	return nil
}

// janitor periodically expires dead leases and forgets quiet workers. It
// runs until Close.
func (s *Scheduler) janitor() {
	interval := s.cfg.LeaseTTL / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopJanitor:
			return
		case now := <-t.C:
			s.expireLeases(now)
		}
	}
}

// expireLeases requeues every leased job whose deadline passed (front of
// the queue — recovered work should not wait behind fresh submissions),
// fails jobs that exhausted their attempts, and forgets workers that have
// been quiet for 3 lease TTLs while holding nothing.
func (s *Scheduler) expireLeases(now time.Time) {
	var finished [][]jobRecord
	s.mu.Lock()
	for wid, w := range s.workers {
		for id := range w.jobs {
			j := s.jobs[id]
			if j == nil {
				delete(w.jobs, id)
				continue
			}
			x := j.exec
			x.mu.Lock()
			if x.lc.state.terminal() {
				// Canceled (or otherwise finished) while leased; release
				// the roster entry.
				x.mu.Unlock()
				delete(w.jobs, id)
				continue
			}
			if x.lc.state != StateRunning || x.lc.worker != wid || !now.After(x.leaseDeadline) {
				x.mu.Unlock()
				continue
			}
			delete(w.jobs, id)
			s.met.leaseExpiries.Inc()
			if x.lc.attempts >= maxLeaseAttempts {
				err := fmt.Errorf("service: lease expired %d times; giving up", maxLeaseAttempts)
				// Running and leased (checked above), so next accepts both
				// this and the requeue below.
				recs, _ := s.finishLocked(x, step{ev: Event{Type: "failed"}, at: time.Now(), err: err})
				x.mu.Unlock()
				finished = append(finished, recs)
				s.met.leaseGiveups.Inc()
				s.logf("service: failed %s: %v", id, err)
				continue
			}
			lc, _ := x.apply(step{ev: Event{Type: "requeued", Worker: wid}})
			x.mu.Unlock()
			s.pending = append([]*job{j}, s.pending...)
			s.cond.Signal()
			s.met.jobsRequeued.Inc()
			s.logf("service: requeued %s after worker %s lease expired (attempt %d/%d)", id, wid, lc.attempts, maxLeaseAttempts)
		}
		if len(w.jobs) == 0 && now.Sub(w.lastSeen) > 3*s.cfg.LeaseTTL {
			delete(s.workers, wid)
		}
	}
	s.mu.Unlock()

	for _, recs := range finished {
		s.finished(recs)
	}
}
