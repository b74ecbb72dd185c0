package service

// The versioned HTTP JSON API over the Scheduler, served by
// cmd/critter-serve:
//
//	POST   /v1/jobs                 submit a tuning job (JobRequest body)
//	GET    /v1/jobs                 list every job's status
//	GET    /v1/jobs/{id}            one job's status
//	DELETE /v1/jobs/{id}            cancel a job
//	GET    /v1/jobs/{id}/events     completion-ordered progress (SSE)
//	GET    /v1/jobs/{id}/result     a finished job's result envelope (compact)
//	GET    /v1/jobs/{id}/trace      a job's span events
//	GET    /v1/metrics              the metrics registry as JSON
//	GET    /metrics                 the same, Prometheus text format
//	GET    /v1/workloads            the registry's workload catalog
//	GET    /v1/profiles/{workload}  the accumulated warm-start profile
//
// Responses are indented JSON, except a result envelope: that is served as
// the compact bytes the job's result was encoded to once, the same before
// and after a restart. Errors are {"error": "..."} with conventional
// status codes (400 malformed request, 404 unknown resource, 409 wrong
// state, 429 queue full — with a Retry-After header and a
// retryAfterSeconds field — and 503 shutting down).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"critter/internal/obs"
)

// maxJobBodyBytes bounds a job-submission body; a tuning request is a few
// hundred bytes of JSON, so anything larger is garbage or abuse.
const maxJobBodyBytes = 1 << 20

// Server is the http.Handler wrapping a Scheduler.
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer builds the API surface over a scheduler.
func NewServer(s *Scheduler) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/jobs", srv.submit)
	srv.mux.HandleFunc("GET /v1/jobs", srv.list)
	srv.mux.HandleFunc("GET /v1/jobs/{id}", srv.status)
	srv.mux.HandleFunc("DELETE /v1/jobs/{id}", srv.cancel)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/events", srv.events)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/result", srv.result)
	srv.mux.HandleFunc("GET /v1/jobs/{id}/trace", srv.trace)
	srv.mux.HandleFunc("GET /v1/metrics", srv.metricsJSON)
	srv.mux.HandleFunc("GET /metrics", srv.metricsProm)
	srv.mux.HandleFunc("GET /v1/workloads", srv.workloads)
	srv.mux.HandleFunc("GET /v1/profiles/{workload}", srv.profile)
	return srv
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeIgnoringError writes p to a response body, deliberately discarding
// the write error: once a body write fails the client connection is gone
// and there is no channel left to report the failure on. Centralizing the
// discard here keeps every handler suppression-free.
func writeIgnoringError(w io.Writer, p []byte) {
	_, _ = w.Write(p)
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// v is always one of the package's own response shapes; failing to
		// marshal one is a programming error worth surfacing loudly.
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	writeIgnoringError(w, append(data, '\n'))
}

// writeError emits the {"error": ...} shape.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	st, err := s.sched.SubmitJSON(body)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure, not failure: tell the client when to come back.
		retry := s.sched.RetryAfterHint()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":             err.Error(),
			"retryAfterSeconds": retry,
		})
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.Jobs()})
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.sched.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.sched.Cancel(id)
	switch {
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusNotFound, err)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	env, ok := s.sched.Result(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if env == nil {
		st, _ := s.sched.Status(id)
		writeError(w, http.StatusConflict, fmt.Errorf("job %s has no result yet (state %s)", id, st.State))
		return
	}
	// The stored bytes as they are, then the newline writeJSON ends with:
	// no re-encoding, and no copy of a slice other readers share.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(env)+1))
	w.WriteHeader(http.StatusOK)
	writeIgnoringError(w, env)
	writeIgnoringError(w, []byte{'\n'})
}

// trace returns the span events of a job's execution (see obs.Event); a
// dedup follower serves its primary's. Executions that did not run in
// this process — replayed, born terminal, or tracing disabled — return an
// empty event list rather than 404: the job exists, it just has nothing
// traced.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, dropped, ok := s.sched.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":                id,
		"traceSchemaVersion": obs.TraceSchemaVersion,
		"dropped":            dropped,
		"events":             events,
	})
}

// metricsJSON serves the registry snapshot as JSON.
func (s *Server) metricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"metrics": s.sched.Metrics().Snapshot()})
}

// metricsProm serves the registry in the Prometheus text exposition
// format, rendered to a buffer first so a failure can still 500.
func (s *Server) metricsProm(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.sched.Metrics().WritePrometheus(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	writeIgnoringError(w, buf.Bytes())
}

// events streams a job's progress as server-sent events: each event is
// `event: <type>` + `data: <Event JSON>`, replaying the job's history
// first, then following live until the terminal event (done, failed, or
// canceled), after which the stream ends. Subscriber buffers are bounded:
// a consumer that cannot keep up loses intermediate events and receives a
// synthetic `lagged` event (with the drop count) before its terminal
// event, which is re-synthesized from the job's final status when the real
// one was among the casualties.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sub, ok := s.sched.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	defer sub.Close()

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) (terminal bool) {
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		if canFlush {
			flusher.Flush()
		}
		return State(ev.Type).terminal()
	}
	finish := func() {
		// The channel closed without us seeing a terminal event: either
		// the consumer lagged past it, or the subscription raced the
		// terminal transition. Flag drops, then synthesize the terminal
		// event from the final status (state names double as terminal
		// event types).
		if n := sub.Dropped(); n > 0 {
			s.sched.met.sseLagged.Inc()
			s.sched.met.sseDropped.Add(int64(n))
			send(Event{Type: "lagged", Job: id, Dropped: n})
		}
		st, ok := s.sched.Status(id)
		if !ok || !st.State.terminal() {
			return
		}
		send(Event{
			Type: string(st.State), Job: id,
			Done: st.SweepsDone, Total: st.SweepsTotal,
			Error: st.Error,
		})
	}
	for _, ev := range sub.Past {
		if send(ev) {
			return
		}
	}
	if sub.C == nil {
		finish()
		return
	}
	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				finish()
				return
			}
			if send(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// workloadInfo is one catalog entry of GET /v1/workloads.
type workloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Policies is the default selective-execution policy list.
	Policies []string `json:"policies"`
	// Scales maps each declared scale preset to the configuration count
	// of the workload's space at that preset.
	Scales map[string]int `json:"scales"`
}

func (s *Server) workloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadInfo
	for _, wl := range s.sched.Registry().List() {
		info := workloadInfo{
			Name:        wl.Name,
			Description: wl.Description,
			Scales:      make(map[string]int),
		}
		for _, p := range wl.Policies {
			info.Policies = append(info.Policies, p.String())
		}
		for _, preset := range wl.Scales {
			info.Scales[preset.Name] = wl.Build(preset.Scale).Size()
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

// profileResponse is the shape of GET /v1/profiles/{workload}: the
// accumulated profile plus its durability provenance.
type profileResponse struct {
	Workload string `json:"workload"`
	// PersistedAt is when the profile was last written to the durable
	// store; absent when the server runs without one (the profile then
	// dies with the process).
	PersistedAt *time.Time      `json:"persistedAt,omitempty"`
	Profile     json.RawMessage `json:"profile"`
}

func (s *Server) profile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("workload")
	data, at, ok, err := s.sched.ProfileInfo(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no accumulated profile for workload %q", name))
		return
	}
	resp := profileResponse{Workload: name, Profile: data}
	if !at.IsZero() {
		resp.PersistedAt = &at
	}
	writeJSON(w, http.StatusOK, resp)
}
