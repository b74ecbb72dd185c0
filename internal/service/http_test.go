package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"critter/internal/autotune"
	"critter/internal/critter"
)

// getJSON fetches a URL and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the whole API surface over a real HTTP server:
// catalog, submission, SSE progress, result envelope, accumulated profile,
// and the error paths.
func TestHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	sched := New(Config{Runners: 1})
	defer closeNow(t, sched)
	ts := httptest.NewServer(NewServer(sched))
	defer ts.Close()
	client := ts.Client()

	// The catalog lists every registered workload with its presets.
	var catalog struct {
		Workloads []struct {
			Name        string         `json:"name"`
			Description string         `json:"description"`
			Policies    []string       `json:"policies"`
			Scales      map[string]int `json:"scales"`
		} `json:"workloads"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/workloads", &catalog); code != http.StatusOK {
		t.Fatalf("GET /v1/workloads: status %d", code)
	}
	byName := map[string]bool{}
	for _, w := range catalog.Workloads {
		byName[w.Name] = true
		if w.Description == "" || len(w.Policies) == 0 || len(w.Scales) == 0 {
			t.Errorf("catalog entry %q is incomplete: %+v", w.Name, w)
		}
	}
	for _, name := range []string{"capital", "slate-chol", "candmc", "slate-qr", "cholesky3d", "qr2d"} {
		if !byName[name] {
			t.Errorf("catalog is missing workload %q", name)
		}
	}

	// Malformed submissions are 400s with an error body.
	for _, bad := range []string{
		``, `{`, `[]`, `{"workload":"bogus"}`, `{"workload":"candmc","scale":"huge"}`,
		`{"workload":"candmc","eps":[0.1],"unknown":1}`, `{"workload":"candmc","strategy":"bogus"}`,
		`{"workload":"candmc","strategy":"halving:3"}`, `{"workload":"candmc","strategy":"surrogate:8:2"}`,
		`{"workload":"candmc","dedup":true}`,
	} {
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400 (body %s)", bad, resp.StatusCode, body)
			continue
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("POST %q: error body %q is not the {\"error\": ...} shape", bad, body)
		}
	}

	// Unknown resources are 404s.
	if code := getJSON(t, client, ts.URL+"/v1/jobs/job-99", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, client, ts.URL+"/v1/profiles/candmc", nil); code != http.StatusNotFound {
		t.Errorf("GET profile before any job: status %d, want 404", code)
	}

	// Submit a real job.
	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"candmc","scale":"quick","policies":["online"],"eps":[0.125],"seed":11,"warmStart":false}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST job: status %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Workload != "candmc" || st.Scale != "quick" || st.SweepsTotal != 1 {
		t.Fatalf("submitted status %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location header %q", loc)
	}

	// The result endpoint answers 409 until the job finishes.
	if code := getJSON(t, client, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict && code != http.StatusOK {
		t.Errorf("GET result while running: status %d, want 409 (or 200 if already done)", code)
	}

	// Follow the SSE stream to completion.
	events := readSSE(t, client, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("SSE stream ended with %q: %+v", last.Type, events)
	}
	sawSweep := false
	for _, ev := range events {
		if ev.Type == "sweep" && ev.Policy == "online" && ev.Eps == 0.125 && ev.Executed > 0 {
			sawSweep = true
		}
	}
	if !sawSweep {
		t.Errorf("SSE stream carried no populated sweep event: %+v", events)
	}

	// Status reflects completion; the envelope decodes through the
	// version-gated decoder.
	if code := getJSON(t, client, ts.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK {
		t.Fatalf("GET job: status %d", code)
	}
	if st.State != StateDone || st.SweepsDone != 1 {
		t.Fatalf("finished status %+v", st)
	}
	envResp, err := client.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	envBody, _ := io.ReadAll(envResp.Body)
	envResp.Body.Close()
	if envResp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d, body %s", envResp.StatusCode, envBody)
	}
	env, err := autotune.DecodeEnvelope(envBody)
	if err != nil {
		t.Fatalf("result envelope does not decode: %v", err)
	}
	if env.Study != "candmc-qr" || env.Scale != "quick" || env.Seed != 11 || env.Result == nil {
		t.Fatalf("envelope %+v", env)
	}
	if got := env.Result.Sweeps[0][0].Executed; got == 0 {
		t.Error("served grid has an empty sweep")
	}

	// The job list includes it, the accumulated profile is now served,
	// and canceling a finished job is a 409.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Errorf("GET /v1/jobs: status %d, %d jobs", code, len(list.Jobs))
	}
	var prof struct {
		Workload    string          `json:"workload"`
		PersistedAt *time.Time      `json:"persistedAt"`
		Profile     json.RawMessage `json:"profile"`
	}
	if code := getJSON(t, client, ts.URL+"/v1/profiles/candmc", &prof); code != http.StatusOK {
		t.Fatalf("GET profile: status %d", code)
	}
	if prof.Workload != "candmc" {
		t.Errorf("profile response names workload %q", prof.Workload)
	}
	if prof.PersistedAt != nil {
		t.Error("profile claims durable persistence on a store-less server")
	}
	if _, err := critter.DecodeProfile(prof.Profile); err != nil {
		t.Errorf("served profile does not decode: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	delResp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE finished job: status %d, want 409", delResp.StatusCode)
	}
}

// TestHTTPUnencodableProfile500 holds GET /v1/profiles/{w} to a 500 that
// names the encode error when the workload's profile exists but cannot be
// encoded: a NaN mean, which JSON cannot carry. "No accumulated profile"
// (404) is only for a workload that has none.
func TestHTTPUnencodableProfile500(t *testing.T) {
	s := New(Config{Runners: 1})
	defer closeNow(t, s)
	s.store.Merge("candmc", &critter.Profile{Kernels: map[critter.Key]critter.KernelModel{
		critter.CompKey("gemm", 8, 8, 8, 0): {Count: 1, Mean: math.NaN()},
	}})
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	var body struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.Client(), ts.URL+"/v1/profiles/candmc", &body); code != http.StatusInternalServerError {
		t.Fatalf("unencodable profile: status %d (%q), want 500", code, body.Error)
	}
	if !strings.Contains(body.Error, "encode profile candmc") {
		t.Errorf("500 body %q does not name the encode error", body.Error)
	}
}

// TestHTTPQueueFull429 drives the backpressure path over the wire: a full
// queue answers 429 with a Retry-After header and a structured JSON body,
// while malformed submissions stay 400.
func TestHTTPQueueFull429(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Registry: blockingRegistry(gate), Runners: 1, QueueSize: 1})
	// t.Cleanup runs after the deferred close(gate), so the blocked
	// runner is released before the scheduler shuts down.
	t.Cleanup(func() { closeNow(t, s) })
	defer close(gate)
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	client := ts.Client()

	// Fill the runner, then the queue. Each body has a seed of its own, so
	// none coalesces; the first job must be running (its queue slot freed)
	// before the second can reliably occupy the whole queue.
	seed := 0
	submit := func() (JobStatus, int) {
		seed++
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"workload":"block","seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st JobStatus
		if resp.StatusCode == http.StatusAccepted {
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatalf("decode submit response %q: %v", data, err)
			}
		}
		return st, resp.StatusCode
	}
	first, code := submit()
	if code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	waitState(t, s, first.ID, StateRunning)
	if _, code := submit(); code != http.StatusAccepted {
		t.Fatalf("queue-filling submission: status %d", code)
	}

	resp, err := client.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"block","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d (body %s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	var e struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.RetryAfterSeconds < 1 {
		t.Errorf("429 body %q does not carry error + retryAfterSeconds", body)
	}

	// Malformed input is still a 400, not a 429.
	resp, err = client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed submission: status %d, want 400", resp.StatusCode)
	}
}

// readSSE consumes a server-sent-event stream until it ends, returning the
// decoded events.
func readSSE(t *testing.T, client *http.Client, url string) []Event {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	resp, err := client.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	var eventType string
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			eventType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			if ev.Type != eventType {
				t.Errorf("SSE event field %q disagrees with data type %q", eventType, ev.Type)
			}
			events = append(events, ev)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	return events
}
