package service

// Worker is the client side of the lease protocol: a separate process
// (critter-serve -mode=worker -join=<url>) that registers against a
// coordinator's JSON API, polls for leases, executes them through the same
// executeSpec path the coordinator's local runners use — so results are
// byte-identical wherever a job lands — and streams sweep events back as
// heartbeats.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
	"critter/internal/workload"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	// Required.
	Base string
	// Name labels the worker in GET /v1/workers; defaults to "worker".
	Name string
	// Registry resolves leased workloads; nil means the process-global
	// default registry. It must agree with the coordinator's registry for
	// the workloads this worker will execute.
	Registry *workload.Registry
	// Machine is the simulated machine model; the zero value means
	// sim.DefaultMachine(). It must match the coordinator's for results
	// to be interchangeable.
	Machine sim.Machine
	// Workers bounds each leased job's sweep pool; 0 means GOMAXPROCS.
	Workers int
	// Poll is the idle delay between lease polls when the queue is empty.
	// 0 means 500ms.
	Poll time.Duration
	// Client is the HTTP client to use; nil means http.DefaultClient.
	Client *http.Client
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Worker executes leased jobs against a remote coordinator.
type Worker struct {
	opts WorkerOptions
	id   string
	ttl  time.Duration
	// completed counts jobs this worker finished (posted a result for),
	// for tests and logs.
	completed int
	// arenas are the executor arenas every leased job runs on, kept for the
	// worker's lifetime.
	arenas autotune.Arenas
}

// NewWorker validates options and builds a worker; Run does the work.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Base == "" {
		return nil, fmt.Errorf("service: worker needs a coordinator base URL")
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Registry == nil {
		opts.Registry = workload.Default()
	}
	if (opts.Machine == sim.Machine{}) {
		opts.Machine = sim.DefaultMachine()
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	return &Worker{opts: opts}, nil
}

// Completed reports how many leased jobs this worker has finished.
func (w *Worker) Completed() int { return w.completed }

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run registers and serves leases until ctx is done. Transient coordinator
// failures (including coordinator restarts, which invalidate the worker's
// registration) are retried with re-registration; Run only returns on ctx
// cancellation.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.register(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("worker: register: %v (retrying)", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		w.logf("worker: registered as %s (lease ttl %s)", w.id, w.ttl)
		if err := w.serve(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.logf("worker: %v (re-registering)", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
		}
	}
}

// errReregister signals that the coordinator forgot this worker (404 on a
// worker route) — typically a coordinator restart.
var errReregister = fmt.Errorf("service: worker registration lost")

// serve polls for leases until ctx is done or the registration is lost.
func (w *Worker) serve(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		grant, err := w.lease(ctx)
		if err != nil {
			return err
		}
		if grant == nil {
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		w.runLease(ctx, grant)
	}
}

// register obtains a worker ID and the lease TTL.
func (w *Worker) register(ctx context.Context) error {
	var resp struct {
		Worker      string `json:"worker"`
		LeaseMillis int64  `json:"leaseMillis"`
	}
	code, err := w.post(ctx, "/v1/workers", map[string]string{"name": w.opts.Name}, &resp)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("service: register worker: HTTP %d", code)
	}
	if resp.Worker == "" || resp.LeaseMillis < 1 {
		return fmt.Errorf("service: register worker: malformed response")
	}
	w.id = resp.Worker
	w.ttl = time.Duration(resp.LeaseMillis) * time.Millisecond
	return nil
}

// lease polls for one grant; nil means no work available.
func (w *Worker) lease(ctx context.Context) (*LeaseGrant, error) {
	var grant LeaseGrant
	code, err := w.post(ctx, "/v1/workers/"+w.id+"/lease", nil, &grant)
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		return &grant, nil
	case http.StatusNoContent:
		return nil, nil
	case http.StatusNotFound:
		return nil, errReregister
	default:
		return nil, fmt.Errorf("service: lease poll: HTTP %d", code)
	}
}

// runLease executes one granted job and posts its result. The lease is
// kept alive two ways: every completed sweep posts an event immediately,
// and a background ticker heartbeats through long sweep gaps. A 404/409
// from either cancels the execution — the lease is gone, finishing the
// work would be wasted.
func (w *Worker) runLease(ctx context.Context, grant *LeaseGrant) {
	reqData, err := json.Marshal(grant.Request)
	if err != nil {
		w.fail(ctx, grant.Job, fmt.Sprintf("marshal request: %v", err))
		return
	}
	spec, err := ParseJobRequest(w.opts.Registry, reqData)
	if err != nil {
		w.fail(ctx, grant.Job, fmt.Sprintf("resolve leased request: %v", err))
		return
	}
	var prior *critter.Profile
	if len(grant.Prior) > 0 {
		prior, err = critter.DecodeProfile(grant.Prior)
		if err != nil {
			w.fail(ctx, grant.Job, fmt.Sprintf("decode prior: %v", err))
			return
		}
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	heartbeat := w.ttl / 3
	if heartbeat < 50*time.Millisecond {
		heartbeat = 50 * time.Millisecond
	}
	// leaseLost flips when a post bounces with 404/409: the coordinator
	// requeued or reassigned the job, so finishing it would be wasted.
	var leaseLost atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-t.C:
				if err := w.postEvents(jobCtx, grant.Job, nil); err != nil {
					w.logf("worker: heartbeat %s: %v", grant.Job, err)
					leaseLost.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	env, merged, runErr := executeSpec(jobCtx, spec, w.opts.Machine, w.opts.Workers, &w.arenas, prior, nil, func(ev Event) {
		ev.Job = grant.Job
		if err := w.postEvents(jobCtx, grant.Job, []Event{ev}); err != nil {
			w.logf("worker: post sweep %s: %v", grant.Job, err)
			leaseLost.Store(true)
			cancel()
		}
	})
	cancel()
	<-hbDone

	if leaseLost.Load() || ctx.Err() != nil {
		// Lease gone, or the worker itself is shutting down: nothing
		// useful to post.
		return
	}

	result := map[string]any{}
	if env != nil {
		envData, err := json.Marshal(env)
		if err == nil {
			result["envelope"] = json.RawMessage(envData)
		}
	}
	if merged != nil {
		profData, err := merged.Encode()
		if err == nil {
			result["profile"] = json.RawMessage(profData)
		}
	}
	if runErr != nil {
		result["error"] = runErr.Error()
	}
	code, err := w.post(ctx, "/v1/workers/"+w.id+"/jobs/"+grant.Job+"/result", result, nil)
	if err != nil || code >= 300 {
		w.logf("worker: post result %s: code %d err %v", grant.Job, code, err)
		return
	}
	w.completed++
	w.logf("worker: completed %s", grant.Job)
}

// fail reports a job the worker could not even start.
func (w *Worker) fail(ctx context.Context, jobID, msg string) {
	w.logf("worker: %s: %s", jobID, msg)
	code, err := w.post(ctx, "/v1/workers/"+w.id+"/jobs/"+jobID+"/result", map[string]any{"error": msg}, nil)
	if err != nil || code >= 300 {
		w.logf("worker: post failure %s: code %d err %v", jobID, code, err)
	}
}

// postEvents ships a sweep-event batch (empty = pure heartbeat).
func (w *Worker) postEvents(ctx context.Context, jobID string, events []Event) error {
	body := map[string]any{"events": events}
	code, err := w.post(ctx, "/v1/workers/"+w.id+"/jobs/"+jobID+"/events", body, nil)
	if err != nil {
		return err
	}
	if code == http.StatusNotFound || code == http.StatusConflict {
		return fmt.Errorf("lease lost (HTTP %d)", code)
	}
	if code >= 300 {
		return fmt.Errorf("HTTP %d", code)
	}
	return nil
}

// post sends one JSON request and decodes the response into out (when
// non-nil and the response has a body). Returns the status code.
func (w *Worker) post(ctx context.Context, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode response: %w", err)
		}
	}
	return resp.StatusCode, nil
}

// sleepCtx sleeps d or until ctx is done; reports whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
