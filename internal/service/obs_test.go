package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"critter/internal/obs"
)

// findFamily locates one metric family in the scheduler's snapshot.
func findFamily(t *testing.T, s *Scheduler, name string) obs.FamilySnapshot {
	t.Helper()
	for _, f := range s.Metrics().Snapshot() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("metric family %q is not registered", name)
	return obs.FamilySnapshot{}
}

// counterValue reads an unlabeled counter or gauge cell by family name.
func counterValue(t *testing.T, s *Scheduler, name string) float64 {
	t.Helper()
	f := findFamily(t, s, name)
	if len(f.Metrics) != 1 {
		t.Fatalf("family %q has %d cells, want 1", name, len(f.Metrics))
	}
	return f.Metrics[0].Value
}

// gatedWriter is a ResponseWriter whose first Write blocks until release
// is closed, so an SSE handler can be held mid-stream while the scheduler
// races ahead and overflows the handler's bounded subscription.
type gatedWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	header  http.Header
	started sync.Once
	first   chan struct{} // closed when the handler attempts its first Write
	release chan struct{} // Writes block until this is closed
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{
		header:  make(http.Header),
		first:   make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (w *gatedWriter) Header() http.Header { return w.header }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	w.started.Do(func() { close(w.first) })
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// eventTypes parses an SSE body into its `event:` type sequence.
func eventTypes(body string) []string {
	var types []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, rest)
		}
	}
	return types
}

// TestSSELaggedResynthesis pins the slow-subscriber contract: a consumer
// that falls behind its subscription window loses intermediate events but
// receives exactly one lagged event (with the drop count) followed by a
// terminal event re-synthesized from the job's final status — never a
// stream that just ends mid-run. The lag is deterministic: the handler's
// first Write is held while the job runs to completion, so the one-slot
// subscription buffer keeps the sweep event and drops the terminal one.
func TestSSELaggedResynthesis(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
	s.subBuffer = 1
	defer closeNow(t, s)
	srv := NewServer(s)

	st, err := s.SubmitJSON([]byte(`{"workload":"block","eps":[0.5],"warmStart":false}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateRunning)

	// Drive the SSE handler against the gated writer. It subscribes (replay:
	// queued, started) and blocks writing the first replayed event.
	w := newGatedWriter()
	r := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil)
	r.SetPathValue("id", st.ID)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.events(w, r)
	}()
	<-w.first

	// Let the job finish while the handler is stuck: the sweep event fills
	// the one-slot buffer and the real done event is dropped.
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	final, err := s.Wait(ctx, st.ID)
	cancel()
	if err != nil || final.State != StateDone {
		t.Fatalf("job did not finish: %+v, %v", final, err)
	}

	close(w.release)
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("SSE handler never returned")
	}

	w.mu.Lock()
	body := w.buf.String()
	w.mu.Unlock()
	types := eventTypes(body)
	want := []string{"queued", "started", "sweep", "lagged", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("SSE event sequence %v, want %v\nbody:\n%s", types, want, body)
	}

	// The lagged event carries the drop count; the synthesized terminal
	// event carries the job's real final progress.
	var lagged, terminal Event
	for _, line := range strings.Split(body, "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("unparsable SSE data %q: %v", data, err)
		}
		switch ev.Type {
		case "lagged":
			lagged = ev
		case "done":
			terminal = ev
		}
	}
	if lagged.Dropped != 1 {
		t.Errorf("lagged event reports %d drops, want 1", lagged.Dropped)
	}
	if terminal.Done != 1 || terminal.Total != 1 {
		t.Errorf("synthesized terminal event counts %d/%d, want 1/1", terminal.Done, terminal.Total)
	}

	if v := counterValue(t, s, "sse_lagged_total"); v != 1 {
		t.Errorf("sse_lagged_total = %v, want 1", v)
	}
	if v := counterValue(t, s, "sse_dropped_events_total"); v != 1 {
		t.Errorf("sse_dropped_events_total = %v, want 1", v)
	}
}

// TestMemoEntriesLeaveWithHistory pins what bounds the memo: MaxHistory.
// A memoized job that history evicts takes its entry with it, so its
// fingerprint re-executes on resubmission, and the memo gauges and
// counters track every step.
func TestMemoEntriesLeaveWithHistory(t *testing.T) {
	gate := make(chan struct{})
	close(gate) // jobs finish immediately
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1, QueueSize: 8, MaxHistory: 2})
	defer closeNow(t, s)

	// Three distinct fingerprints (the seed differs), history for two.
	body := func(seed int) string {
		return `{"workload":"block","eps":[0.5],"seed":` + string(rune('0'+seed)) + `,"warmStart":false}`
	}
	// gone checks that history evicted id: a job's terminal transition
	// prunes history in the same section that publishes the event Wait
	// returns at.
	gone := func(id string) {
		t.Helper()
		if _, ok := s.Status(id); ok {
			t.Fatalf("job %s still in history after the job that evicts it finished", id)
		}
	}
	// memo reads memo_entry_hits as fingerprint -> hits, checking that
	// the samples come in fingerprint order.
	memo := func() map[string]float64 {
		t.Helper()
		out := map[string]float64{}
		prev := ""
		for _, m := range findFamily(t, s, "memo_entry_hits").Metrics {
			if fp := m.Labels[0]; fp <= prev {
				t.Errorf("memo_entry_hits sample %s follows %s, want fingerprint order", fp, prev)
			}
			prev = m.Labels[0]
			out[m.Labels[0]] = m.Value
		}
		if n := counterValue(t, s, "memo_entries"); int(n) != len(out) {
			t.Errorf("memo_entries = %v, but memo_entry_hits has %d samples", n, len(out))
		}
		return out
	}
	sameMemo := func(got, want map[string]float64, evictions float64) {
		t.Helper()
		if v := counterValue(t, s, "memo_evictions_total"); v != evictions {
			t.Errorf("memo_evictions_total = %v, want %v", v, evictions)
		}
		if len(got) != len(want) {
			t.Fatalf("memo = %v, want %v", got, want)
		}
		for fp, hits := range want {
			if v, ok := got[fp]; !ok || v != hits {
				t.Fatalf("memo = %v, want %v", got, want)
			}
		}
	}

	a := submitWait(t, s, body(1))
	b := submitWait(t, s, body(2))
	c := submitWait(t, s, body(3))
	for _, st := range []JobStatus{a, b, c} {
		if st.State != StateDone || st.DedupOf != "" {
			t.Fatalf("cold job %+v did not execute cleanly", st)
		}
	}
	gone(a.ID)
	sameMemo(memo(), map[string]float64{b.Fingerprint: 0, c.Fingerprint: 0}, 1)

	// A left history, so its resubmission executes again; its finish
	// evicts B, entry included.
	reA := submitWait(t, s, body(1))
	if reA.State != StateDone || reA.DedupOf != "" {
		t.Fatalf("resubmission of an evicted fingerprint %+v, want a fresh execution", reA)
	}
	gone(b.ID)
	if v := counterValue(t, s, "memo_misses_total"); v != 4 {
		t.Errorf("memo_misses_total = %v, want 4 (three cold runs plus A's re-execution)", v)
	}
	sameMemo(memo(), map[string]float64{c.Fingerprint: 0, reA.Fingerprint: 0}, 2)

	// A again is a memo hit, born terminal: it counts against history and
	// evicts C, leaving the re-execution's entry with its one hit.
	hitA, err := s.SubmitJSON([]byte(body(1)))
	if err != nil {
		t.Fatal(err)
	}
	if hitA.State != StateDone || hitA.DedupOf != reA.ID {
		t.Fatalf("memoized resubmission %+v, want done dedupOf %s", hitA, reA.ID)
	}
	if _, ok := s.Status(c.ID); ok {
		t.Errorf("job %s survived a memo hit past MaxHistory", c.ID)
	}
	if v := counterValue(t, s, "memo_hits_total"); v != 1 {
		t.Errorf("memo_hits_total = %v, want 1", v)
	}
	sameMemo(memo(), map[string]float64{reA.Fingerprint: 1}, 3)
}

// TestMetricsAndTraceEndpoints drives the three observability endpoints
// over real HTTP: the JSON snapshot, the Prometheus text exposition, and
// a finished job's span trace.
func TestMetricsAndTraceEndpoints(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1})
	defer closeNow(t, s)
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	client := ts.Client()

	st := submitWait(t, s, `{"workload":"block","eps":[0.5],"warmStart":false}`)
	if st.State != StateDone {
		t.Fatalf("job state %s", st.State)
	}

	// JSON snapshot: every family has a name and kind, and the counters
	// the smoke script asserts on are present with the expected values.
	var snap struct {
		Metrics []obs.FamilySnapshot `json:"metrics"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/metrics", &snap); code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", code)
	}
	byName := make(map[string]obs.FamilySnapshot, len(snap.Metrics))
	for _, f := range snap.Metrics {
		if f.Name == "" || f.Kind == "" {
			t.Errorf("family %+v is missing name or kind", f)
		}
		byName[f.Name] = f
	}
	for name, want := range map[string]float64{
		"jobs_submitted_total": 1,
		"jobs_completed_total": 1,
		"memo_hits_total":      0,
		"queue_depth":          0,
	} {
		f, ok := byName[name]
		if !ok || len(f.Metrics) != 1 {
			t.Errorf("snapshot family %q missing or multi-cell: %+v", name, f)
			continue
		}
		if f.Metrics[0].Value != want {
			t.Errorf("%s = %v, want %v", name, f.Metrics[0].Value, want)
		}
	}
	if f, ok := byName["kernels_executed_total"]; !ok || len(f.Labels) != 1 || f.Labels[0] != "workload" {
		t.Errorf("kernels_executed_total is not labeled by workload: %+v", f)
	}

	// Prometheus text: correct content type, HELP/TYPE headers, and every
	// sample line in the name{labels} value shape.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Prometheus content type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE jobs_completed_total counter",
		"jobs_completed_total 1",
		"# TYPE job_duration_seconds histogram",
		`job_duration_seconds_bucket{le="+Inf"} 1`,
		`kernels_executed_total{workload="block"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text is missing %q", want)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("Prometheus sample line %q is not `name value`", line)
		}
	}

	// Trace endpoint: the finished job's span events, job begin/end
	// bracketing sweep and config spans, wall-stamped throughout.
	var trace struct {
		Job                string      `json:"job"`
		TraceSchemaVersion int         `json:"traceSchemaVersion"`
		Dropped            uint64      `json:"dropped"`
		Events             []obs.Event `json:"events"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/jobs/"+st.ID+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	if trace.Job != st.ID || trace.TraceSchemaVersion != obs.TraceSchemaVersion {
		t.Errorf("trace header %+v", trace)
	}
	if len(trace.Events) < 4 {
		t.Fatalf("trace has %d events, want at least job begin/end around a sweep pair", len(trace.Events))
	}
	first, last := trace.Events[0], trace.Events[len(trace.Events)-1]
	if first.Kind != obs.KindJob || first.Phase != obs.PhaseBegin {
		t.Errorf("trace starts with %+v, want job begin", first)
	}
	if last.Kind != obs.KindJob || last.Phase != obs.PhaseEnd || last.Error != "" {
		t.Errorf("trace ends with %+v, want clean job end", last)
	}
	kinds := make(map[string]int)
	for _, ev := range trace.Events {
		kinds[ev.Kind]++
		if ev.WallNanos == 0 {
			t.Errorf("event %+v has no wall stamp", ev)
		}
	}
	if kinds[obs.KindSweep] != 2 || kinds[obs.KindConfig] < 2 {
		t.Errorf("trace kind counts %v, want one sweep pair and config spans", kinds)
	}

	// Unknown jobs 404; a known job without a trace — a memo hit, born
	// terminal — serves an empty (not missing) one.
	if code := getJSON(t, client, ts.URL+"/v1/jobs/job-99/trace", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown trace: status %d, want 404", code)
	}
	hit, err := s.SubmitJSON([]byte(`{"workload":"block","eps":[0.5],"warmStart":false}`))
	if err != nil || hit.State != StateDone || hit.DedupOf != st.ID {
		t.Fatalf("resubmission %+v (err %v), want a memo hit on %s", hit, err, st.ID)
	}
	trace.Events = nil
	if code := getJSON(t, client, ts.URL+"/v1/jobs/"+hit.ID+"/trace", &trace); code != http.StatusOK {
		t.Fatalf("GET memo-hit trace: status %d, want 200", code)
	}
	if trace.Job != hit.ID || trace.Dropped != 0 || trace.Events == nil || len(trace.Events) != 0 {
		t.Errorf("memo-hit trace %+v, want an empty trace", trace)
	}
}
