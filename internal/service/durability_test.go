package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"critter/internal/autotune"
	"critter/internal/critter"
	"critter/internal/sim"
	"critter/internal/store"
	"critter/internal/workload"
)

// TestRestartDurability is the restart acceptance test, in three lives of
// one store directory:
//
//	life 1: run a cold job to completion, shut down cleanly, and append
//	        a record as earlier versions wrote it (its status names a
//	        worker and attempts). The store compacts at every commit, so
//	        lives 2 and 3 replay a snapshot the streamed compaction wrote,
//	        not the log. (Life 2 commits nothing, so a small threshold
//	        there would write none.)
//	life 2: reopen; verify the finished job replayed. Start one job and
//	        queue another behind it, then close the store under them —
//	        the crash-with-work-in-flight case.
//	life 3: reopen; the finished job is still queryable with a
//	        byte-identical envelope, the unfinished jobs are gone (the
//	        documented reject-on-restart semantics), the earlier version's
//	        record is a done job without the fields this version dropped,
//	        the persisted profile encodes to life 1's bytes and
//	        warm-starts a new job into strictly fewer executed kernels
//	        than the cold run, and a resubmission of the cold spec is
//	        served from the replayed memo, the earlier record's entry,
//	        without re-executing.
func TestRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	dir := t.TempDir()
	const coldBody = `{"workload":"candmc","scale":"quick","policies":["online"],"eps":[0.125],"seed":11,"warmStart":false}`

	// Life 1: cold job to completion.
	st1, err := store.Open(dir, store.Options{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Runners: 1, Durable: st1})
	cold := submitWait(t, s1, coldBody)
	if cold.State != StateDone {
		t.Fatalf("cold job finished %s (err %q)", cold.State, cold.Error)
	}
	coldEnv := envelopeJSON(t, s1, cold.ID)
	coldExec := mustExecuted(t, s1, cold.ID)
	coldProfile, _, ok, err := s1.ProfileInfo("candmc")
	if !ok || err != nil {
		t.Fatalf("no candmc profile after the cold job: ok=%v err=%v", ok, err)
	}
	// The durable records hold the bytes earlier versions framed: the
	// profile is Profile.Encode compacted, the envelope json.Marshal's.
	var want bytes.Buffer
	if err := json.Compact(&want, coldProfile); err != nil {
		t.Fatal(err)
	}
	if rec, ok := st1.Get(kindProfile, "candmc"); !ok || !bytes.Equal(rec.Data, want.Bytes()) {
		t.Errorf("durable profile record (found %v) is not the compacted Profile.Encode", ok)
	}
	var jr struct {
		Envelope json.RawMessage `json:"envelope"`
	}
	if rec, ok := st1.Get(kindJob, cold.ID); !ok || json.Unmarshal(rec.Data, &jr) != nil || !bytes.Equal(jr.Envelope, coldEnv) {
		t.Errorf("durable job record (found %v) does not hold the marshaled envelope", ok)
	}
	closeNow(t, s1)
	// A record as earlier versions wrote it, whose status names the worker
	// that ran the job and its attempts: a copy of the cold job's record
	// under a later ID. It is appended last, so its memo entry wins.
	const parentID = "job-50"
	parentData := parentRecord(t, st1, cold.ID, parentID)
	if err := st1.Append(store.Record{Kind: kindJob, Key: parentID, At: cold.Finished, Data: parentData}); err != nil {
		t.Fatal(err)
	}
	if n := st1.LogSize(); n != 0 {
		t.Fatalf("log holds %d bytes after compacting at every commit", n)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Life 2: the finished job replayed; "crash" with one job running and
	// one queued behind it: the store closes under a scheduler that never
	// shut down, so neither job's end reaches it.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s2 := New(Config{Registry: blockingRegistry(gate), Durable: st2})
	replayed, ok := s2.Status(cold.ID)
	if !ok || replayed.State != StateDone {
		t.Fatalf("job %s after restart: ok=%v status %+v", cold.ID, ok, replayed)
	}
	if got := envelopeJSON(t, s2, cold.ID); !bytes.Equal(got, coldEnv) {
		t.Errorf("replayed envelope differs from the original:\n%s\nvs\n%s", got, coldEnv)
	}
	running, err := s2.SubmitJSON([]byte(`{"workload":"block","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, running.ID, StateRunning)
	queued, err := s2.SubmitJSON([]byte(`{"workload":"block","seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != StateQueued {
		t.Fatalf("job behind a busy runner is %s, want queued", queued.State)
	}
	if running.ID == cold.ID || running.ID == parentID {
		t.Fatalf("replay did not advance job IDs: new job reused %s", running.ID)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	closeNow(t, s2)

	// Life 3: history and profiles survived; queued-but-unstarted did not.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st3.Close(); err != nil {
			t.Error(err)
		}
	}()
	s3 := New(Config{Runners: 1, Durable: st3})
	defer closeNow(t, s3)

	if again, ok := s3.Status(cold.ID); !ok || again.State != StateDone {
		t.Fatalf("job %s after second restart: ok=%v status %+v", cold.ID, ok, again)
	}
	if got := envelopeJSON(t, s3, cold.ID); !bytes.Equal(got, coldEnv) {
		t.Error("second replay corrupted the envelope")
	}
	for _, id := range []string{running.ID, queued.ID} {
		if _, ok := s3.Status(id); ok {
			t.Errorf("job %s, unfinished at the crash, survived the restart; restart semantics say it is rejected", id)
		}
	}
	// The earlier version's record replays as a done job with its
	// envelope, and its status drops the fields this version lacks.
	parent, ok := s3.Status(parentID)
	if !ok || parent.State != StateDone {
		t.Fatalf("earlier version's record %s after restart: ok=%v status %+v", parentID, ok, parent)
	}
	if got := envelopeJSON(t, s3, parentID); !bytes.Equal(got, coldEnv) {
		t.Error("earlier version's record replayed a different envelope")
	}
	if data, err := json.Marshal(parent); err != nil || bytes.Contains(data, []byte(`"worker"`)) || bytes.Contains(data, []byte(`"attempts"`)) {
		t.Errorf("replayed status of %s still carries worker or attempts: %s (%v)", parentID, data, err)
	}
	prof, at, ok, err := s3.ProfileInfo("candmc")
	if !ok || err != nil || at.IsZero() {
		t.Errorf("persisted profile after restart: ok=%v err=%v persistedAt=%v", ok, err, at)
	}
	if !bytes.Equal(prof, coldProfile) {
		t.Errorf("profile after two restarts differs from life 1's:\n%s\nvs\n%s", prof, coldProfile)
	}

	// The durable profile warm-starts new work: strictly fewer executed
	// kernels than the cold run, with no job yet executed in this life.
	warm := submitWait(t, s3, `{"workload":"candmc","scale":"quick","policies":["online"],"eps":[0.125],"seed":11,"warmStart":true}`)
	if warm.State != StateDone {
		t.Fatalf("warm job finished %s (err %q)", warm.State, warm.Error)
	}
	if !warm.WarmStart {
		t.Error("restarted scheduler did not warm-start from the durable profile")
	}
	warmExec := mustExecuted(t, s3, warm.ID)
	if warmExec >= coldExec {
		t.Errorf("warm job executed %d kernels, want strictly fewer than the cold run's %d", warmExec, coldExec)
	}
	t.Logf("cold executed %d, warm-after-restart executed %d", coldExec, warmExec)

	// The memo replayed too: the cold spec resubmitted is served from
	// history without another Tuner run.
	runsBefore := s3.TunerRuns()
	memo, err := s3.SubmitJSON([]byte(coldBody))
	if err != nil {
		t.Fatal(err)
	}
	if !memo.Deduped || memo.State != StateDone {
		t.Fatalf("resubmitted cold spec after restart: %+v, want a memo hit", memo)
	}
	if memo.DedupOf != parentID {
		t.Errorf("memo hit answered by %s, want the earlier version's record %s", memo.DedupOf, parentID)
	}
	if got := envelopeJSON(t, s3, memo.ID); !bytes.Equal(got, coldEnv) {
		t.Error("memoized envelope after restart differs from the original")
	}
	if runs := s3.TunerRuns(); runs != runsBefore {
		t.Errorf("memo hit after restart re-executed the Tuner (%d -> %d runs)", runsBefore, runs)
	}
}

// parentRecord copies the durable record of job from under id, its status
// carrying the "worker" and "attempts" fields earlier versions wrote.
func parentRecord(t *testing.T, st *store.Store, from, id string) []byte {
	t.Helper()
	rec, ok := st.Get(kindJob, from)
	if !ok {
		t.Fatalf("no durable record for %s", from)
	}
	var jr map[string]json.RawMessage
	var status map[string]any
	if err := json.Unmarshal(rec.Data, &jr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jr["status"], &status); err != nil {
		t.Fatal(err)
	}
	status["id"], status["worker"], status["attempts"] = id, "w-1", 2
	var err error
	if jr["status"], err = json.Marshal(status); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReplayRemovedStrategySpelling: a finished job whose durable record
// names a strategy spelling this version no longer accepts (halving:3,
// written when halving took a pruning factor) still replays with its
// status and its result bytes, because replay never re-parses a request;
// submitting the same request anew is rejected.
func TestReplayRemovedStrategySpelling(t *testing.T) {
	const (
		status = `{"id":"job-7","state":"done","workload":"capital","scale":"quick","strategy":"halving:3",` +
			`"policies":["online"],"eps":[0.125],"seed":7,"noiseSigma":0.1,"extrapolate":false,"warmStart":false,` +
			`"fingerprint":"sha256:00","sweepsDone":1,"sweepsTotal":1,"submitted":"2025-01-02T03:04:05Z",` +
			`"started":"2025-01-02T03:04:06Z","finished":"2025-01-02T03:04:07Z"}`
		request = `{"workload":"capital","scale":"quick","policies":["online"],"eps":[0.125],"strategy":"halving:3",` +
			`"seed":7,"noiseSigma":0.1,"warmStart":false}`
		envelope = `{"schemaVersion":3,"study":"capital-cholesky","scale":"quick","seed":7,"noiseSigma":0.1,` +
			`"strategy":"halving:3","result":{"Study":"capital-cholesky","Strategy":"halving:3",` +
			`"Policies":["online"],"EpsList":[0.125],"Sweeps":[[{"Policy":"online","Eps":0.125}]]}}`
	)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	data := `{"status":` + status + `,"request":` + request + `,"envelope":` + envelope + `}`
	if err := st.Append(store.Record{Kind: kindJob, Key: "job-7", Data: json.RawMessage(data)}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Runners: 1, Durable: st})
	defer closeNow(t, s)

	got, ok := s.Status("job-7")
	if !ok {
		t.Fatal("the halving:3 record did not replay")
	}
	if enc, err := json.Marshal(got); err != nil || string(enc) != status {
		t.Errorf("replayed status (%v):\n%s\nwant the record's:\n%s", err, enc, status)
	}
	if res := envelopeJSON(t, s, "job-7"); string(res) != envelope {
		t.Errorf("replayed result:\n%s\nwant the record's:\n%s", res, envelope)
	}
	if _, err := s.SubmitJSON([]byte(request)); err == nil {
		t.Error("a new halving:3 submission was accepted")
	}
}

// TestReplayDedupOptOutRecord: a finished job whose durable record was
// written when a request could opt out of coalescing ("dedup": false)
// replays with its status and its result bytes. It is cold and done, so
// it is a memo entry like any other: an identical new submission is
// answered from it without executing.
func TestReplayDedupOptOutRecord(t *testing.T) {
	const (
		submission = `{"workload":"capital","scale":"quick","policies":["online"],"eps":[0.125],"strategy":"exhaustive",` +
			`"seed":7,"noiseSigma":0.1,"warmStart":false}`
		envelope = `{"schemaVersion":3,"study":"capital-cholesky","scale":"quick","seed":7,"noiseSigma":0.1,` +
			`"strategy":"exhaustive","result":{"Study":"capital-cholesky","Strategy":"exhaustive",` +
			`"Policies":["online"],"EpsList":[0.125],"Sweeps":[[{"Policy":"online","Eps":0.125}]]}}`
	)
	spec, err := ParseJobRequest(nil, []byte(submission))
	if err != nil {
		t.Fatal(err)
	}
	status := `{"id":"job-7","state":"done","workload":"capital","scale":"quick","strategy":"exhaustive",` +
		`"policies":["online"],"eps":[0.125],"seed":7,"noiseSigma":0.1,"extrapolate":false,"warmStart":false,` +
		`"fingerprint":"` + spec.fingerprint + `","sweepsDone":1,"sweepsTotal":1,"submitted":"2025-01-02T03:04:05Z",` +
		`"started":"2025-01-02T03:04:06Z","finished":"2025-01-02T03:04:07Z"}`
	request := strings.TrimSuffix(submission, "}") + `,"dedup":false}`
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	data := `{"status":` + status + `,"request":` + request + `,"envelope":` + envelope + `}`
	if err := st.Append(store.Record{Kind: kindJob, Key: "job-7", Data: json.RawMessage(data)}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Runners: 1, Durable: st})
	defer closeNow(t, s)

	got, ok := s.Status("job-7")
	if !ok {
		t.Fatal("the dedup:false record did not replay")
	}
	if enc, err := json.Marshal(got); err != nil || string(enc) != status {
		t.Errorf("replayed status (%v):\n%s\nwant the record's:\n%s", err, enc, status)
	}
	if res := envelopeJSON(t, s, "job-7"); string(res) != envelope {
		t.Errorf("replayed result:\n%s\nwant the record's:\n%s", res, envelope)
	}
	hit, err := s.SubmitJSON([]byte(submission))
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || hit.DedupOf != "job-7" {
		t.Fatalf("identical submission %+v, want a memo hit on job-7", hit)
	}
	if res := envelopeJSON(t, s, hit.ID); string(res) != envelope {
		t.Errorf("memo hit's result:\n%s\nwant the record's:\n%s", res, envelope)
	}
	if runs := s.TunerRuns(); runs != 0 {
		t.Errorf("the memo hit ran %d Tuner executions", runs)
	}
}

// mustExecuted returns the executed-kernel count of a finished job's only
// sweep.
func mustExecuted(t *testing.T, s *Scheduler, id string) int64 {
	t.Helper()
	env := resultEnvelope(t, s, id)
	if env.Result == nil || len(env.Result.Sweeps) == 0 || len(env.Result.Sweeps[0]) == 0 {
		t.Fatalf("job %s has no sweep results", id)
	}
	return env.Result.Sweeps[0][0].Executed
}

// TestOneSweepJobHandsOverItsProfile: a one-sweep job hands the store its
// sweep's own profile, and the store merges into it. After each of three
// jobs the durable profile record is byte for byte what folding the jobs'
// learned profiles with MergeProfiles writes, and the profile Get returned
// after the first job encodes the same after two more merges: the store
// builds in what a job hands over, never in what it published.
func TestOneSweepJobHandsOverItsProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Runners: 1, Durable: st})
	defer closeNow(t, s)
	const body = `{"workload":"candmc","scale":"quick","policies":["online"],"eps":[0.125],"seed":%d,"warmStart":false}`

	// Each job's learned profile, run again outside the scheduler.
	var arenas autotune.Arenas
	var folded, published *critter.Profile
	var publishedBefore []byte
	for i, seed := range []int{11, 12, 13} {
		req := fmt.Sprintf(body, seed)
		if j := submitWait(t, s, req); j.State != StateDone {
			t.Fatalf("job seed %d finished %s (err %q)", seed, j.State, j.Error)
		}
		spec, err := ParseJobRequest(s.Registry(), []byte(req))
		if err != nil {
			t.Fatal(err)
		}
		_, learned, err := executeSpec(context.Background(), spec, sim.DefaultMachine(), 0, &arenas, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		folded = critter.MergeProfiles(folded, learned)
		stamped := *folded
		stamped.SchemaVersion = critter.ProfileSchemaVersion
		want, err := json.Marshal(&stamped)
		if err != nil {
			t.Fatal(err)
		}
		if rec, ok := st.Get(kindProfile, "candmc"); !ok || !bytes.Equal(rec.Data, want) {
			t.Errorf("after job seed %d the durable profile record (found %v) differs from the MergeProfiles fold", seed, ok)
		}
		if i == 0 {
			published = s.Store().Get("candmc")
			if publishedBefore, err = published.Encode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := published.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, publishedBefore) {
		t.Error("merging later jobs into the store changed a profile it had published")
	}
}

// TestResultBytesEndToEnd: a job's result is one encoding. The body of
// GET /result without its newline, the durable job record's envelope, the
// body after a restart, a memo hit's body and record before and after the
// restart are all byte for byte json.Marshal of the envelope executeSpec
// returns for the same cold spec.
func TestResultBytesEndToEnd(t *testing.T) {
	reg := tinyRegistry()
	const body = `{"workload":"tiny","policies":["online"],"eps":[0.5],"seed":5,"warmStart":false}`
	spec, err := ParseJobRequest(reg, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var arenas autotune.Arenas
	env, _, err := executeSpec(context.Background(), spec, sim.DefaultMachine(), 0, &arenas, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from json.Marshal of executeSpec's envelope:\n%s\nvs\n%s", what, got, want)
		}
	}
	get := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("GET result of %s: status %d, type %q", id, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		out, ok := bytes.CutSuffix(data, []byte("\n"))
		if !ok {
			t.Errorf("GET result of %s does not end in a newline", id)
		}
		return out
	}
	record := func(st *store.Store, id string) []byte {
		t.Helper()
		rec, ok := st.Get(kindJob, id)
		var jr jobRecord
		if !ok || json.Unmarshal(rec.Data, &jr) != nil {
			t.Fatalf("no durable record for %s", id)
		}
		return jr.Envelope
	}
	memoHit := func(s *Scheduler) string {
		t.Helper()
		st, err := s.SubmitJSON([]byte(body))
		if err != nil || !st.Deduped || st.State != StateDone {
			t.Fatalf("resubmission: %+v, %v; want a memo hit", st, err)
		}
		return st.ID
	}

	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Registry: reg, Runners: 1, Durable: st1})
	ts1 := httptest.NewServer(NewServer(s1))
	cold := submitWait(t, s1, body)
	if cold.State != StateDone {
		t.Fatalf("cold job finished %s (err %q)", cold.State, cold.Error)
	}
	check("GET /result", get(ts1, cold.ID))
	memo := memoHit(s1)
	check("a memo hit's GET /result", get(ts1, memo))
	ts1.Close()
	// The cold job's record is appended after the terminal transition
	// Wait sees, so the records are read once the runner has exited.
	closeNow(t, s1)
	check("the durable job record's envelope", record(st1, cold.ID))
	check("a memo hit's durable record", record(st1, memo))
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := New(Config{Registry: reg, Runners: 1, Durable: st2})
	defer closeNow(t, s2)
	ts2 := httptest.NewServer(NewServer(s2))
	defer ts2.Close()
	check("GET /result after a restart", get(ts2, cold.ID))
	check("a replayed memo hit's GET /result", get(ts2, memo))
	check("a memo hit's GET /result after a restart", get(ts2, memoHit(s2)))
}

// TestUnencodableResultFailsJob: a job whose envelope cannot be encoded
// ends failed with the encoding error, and has no result to serve.
func TestUnencodableResultFailsJob(t *testing.T) {
	reg := workload.NewRegistry()
	err := reg.Register(workload.Workload{
		Name:        "nan",
		Description: "test workload whose kernels take NaN time",
		Build: func(autotune.Scale) autotune.Study {
			return autotune.Study{
				Name:      "nan",
				Space:     autotune.NewSpace(autotune.IntsDim("v", 0, 0)),
				WorldSize: 1,
				Policies:  []critter.Policy{critter.Online},
				Run: func(p *critter.Profiler, cc *critter.Comm, v int) {
					p.Kernel("work", 1, 0, 0, 0, math.NaN(), func() {})
				},
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	s := New(Config{Registry: reg, Runners: 1, Durable: dur})
	st := submitWait(t, s, `{"workload":"nan","policies":["online"],"eps":[0.5]}`)
	// The job record is appended after the terminal transition Wait sees.
	closeNow(t, s)
	if st.State != StateFailed || !strings.Contains(st.Error, "encode envelope") {
		t.Errorf("job finished %s (err %q), want failed with the encoding error", st.State, st.Error)
	}
	if env, ok := s.Result(st.ID); !ok || env != nil {
		t.Errorf("unencodable job serves a result: %q, %v", env, ok)
	}
	var jr jobRecord
	if rec, ok := dur.Get(kindJob, st.ID); !ok || json.Unmarshal(rec.Data, &jr) != nil || jr.Envelope != nil || jr.Status.State != StateFailed {
		t.Errorf("durable record (found %v) is not a failed job without an envelope", ok)
	}
}
