package main

// serve-mixed: two closed-loop HTTP clients against a durable job service
// that is shut down and reopened on the same directory half-way through
// every rep. The kernels do little here; service, store and JSON do most
// of the work, and it is the only workload where queueing, persistence and
// restart cost are visible.
//
// Closed loop: each client submits its next job only after it has fetched
// the previous job's result, so a slower service receives less load.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"critter/internal/autotune"
	"critter/internal/service"
	"critter/internal/sim"
	"critter/internal/store"
)

// The service's fixed shape (ISSUE): two runners, one sweep worker each,
// two clients.
const (
	serveRunners   = 2
	serveClients   = 2
	serveQueueSize = 16
)

// clientStudies gives each client two of the four studies, so every
// study's warm-start chain is in one client's order and results stay a
// function of the seed. The heavy study (candmc) and the light one
// (slate-chol) share a client to even the two out.
var clientStudies = [serveClients][2]string{
	{"candmc", "slate-chol"},
	{"capital", "slate-qr"},
}

type jobKind int

const (
	jobFresh    jobKind = iota // a spec with a seed of its own: runs the tuner
	jobResubmit                // an earlier cold spec again: a memo hit
	jobReread                  // an earlier job's result fetched again
)

func (k jobKind) String() string { return [...]string{"fresh", "resubmit", "reread"}[k] }

// plannedJob is one step of a client's script.
type plannedJob struct {
	Kind  jobKind
	Study string
	// Body is the POST body (fresh and resubmit).
	Body []byte
	// Ref is the position, in the same client's script, of the fresh job
	// a resubmission repeats or a re-read fetches again.
	Ref int
	// Cold marks a fresh spec with warmStart off: deterministic whatever
	// ran before it, so the service memoizes it.
	Cold bool
}

// jobsPerClient: 60% fresh, 30% resubmissions, 10% re-reads, exact for a
// multiple of ten. The service restarts after half of them.
const jobsPerClient = 150

// planClient scripts one client's jobs: a pure function of its arguments.
// Each half of the script (one life of the service) has the same exact
// counts of every kind and of every fresh combination whatever the seed,
// which only orders them; so every seed does like work before and after
// the restart and leaves a like amount behind. The order is repaired so a
// resubmission or re-read always has an earlier job to refer to.
func planClient(seed uint64, client, n int) []plannedJob {
	rng := sim.NewRNG(sim.Mix(seed, uint64(client), 0x6a6f626d6978)) // "jobmix"
	shuffle := func(n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.Intn(i+1))
		}
	}
	// Cumulative counts at a script position: 60% fresh, 30% resubmitted.
	freshBy := func(pos int) int { return pos * 6 / 10 }
	resubBy := func(pos int) int { return pos * 3 / 10 }
	var kinds []jobKind
	var combos []int // study x strategy x cold/warm of each fresh job, in script order
	for _, b := range [][2]int{{0, n / 2}, {n / 2, n}} {
		fresh, resub := freshBy(b[1])-freshBy(b[0]), resubBy(b[1])-resubBy(b[0])
		half := make([]jobKind, b[1]-b[0])
		for i := range half {
			switch {
			case i < fresh:
				half[i] = jobFresh
			case i < fresh+resub:
				half[i] = jobResubmit
			default:
				half[i] = jobReread
			}
		}
		shuffle(len(half), func(i, j int) { half[i], half[j] = half[j], half[i] })
		kinds = append(kinds, half...)
		c := make([]int, fresh)
		for i := range c {
			c[i] = i % 8
		}
		shuffle(fresh, func(i, j int) { c[i], c[j] = c[j], c[i] })
		combos = append(combos, c...)
	}

	plan := make([]plannedJob, 0, n)
	var coldDone, freshDone []int // positions of earlier fresh jobs
	nextFresh := 0
	for i := 0; i < n; i++ {
		k := kinds[i]
		if (k == jobResubmit && len(coldDone) == 0) || (k == jobReread && len(freshDone) == 0) {
			// Nothing to refer to yet: pull the next fresh job forward.
			for j := i + 1; j < n; j++ {
				if kinds[j] == jobFresh {
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
			k = kinds[i]
		}
		switch k {
		case jobFresh:
			c := combos[nextFresh]
			nextFresh++
			study := clientStudies[client][c&1]
			// slate-chol, the cheapest study, is always swept whole: its
			// jobs are then one cluster of like latency around the median
			// of the pooled latencies (40% of jobs are faster memo hits and
			// re-reads, 45% slower), which keeps job_p50_s off the steep
			// edge between two clusters.
			strategy := "exhaustive"
			if c&2 != 0 && study != "slate-chol" {
				strategy = "random:6"
			}
			cold := c&4 != 0
			// 48 bits: exact in any JSON reader.
			jobSeed := sim.Mix(seed, uint64(client), uint64(i)) & (1<<48 - 1)
			req := service.JobRequest{
				Workload: study, Scale: "quick", Policies: []string{"online"},
				Eps: []float64{0.125}, Strategy: strategy, Seed: &jobSeed,
			}
			if cold {
				off := false
				req.WarmStart = &off
			}
			body, err := json.Marshal(req)
			if err != nil {
				panic(err) // plain values only
			}
			plan = append(plan, plannedJob{Kind: jobFresh, Study: study, Body: body, Cold: cold})
			freshDone = append(freshDone, i)
			if cold {
				coldDone = append(coldDone, i)
			}
		case jobResubmit:
			ref := coldDone[rng.Intn(len(coldDone))]
			plan = append(plan, plannedJob{Kind: jobResubmit, Study: plan[ref].Study, Body: plan[ref].Body, Ref: ref})
		case jobReread:
			ref := freshDone[rng.Intn(len(freshDone))]
			plan = append(plan, plannedJob{Kind: jobReread, Study: plan[ref].Study, Ref: ref})
		}
	}
	return plan
}

type serveWorkload struct {
	plans [serveClients][]plannedJob
	dir   string // parent of every rep's store directory
	reps  int    // store directories handed out
}

func newServeMixed(seed uint64, env *runEnv) (*serveWorkload, error) {
	n := jobsPerClient
	if env.smoke {
		n = 20 // the least with a cold spec in each half to resubmit
	}
	w := &serveWorkload{dir: env.tmpDir}
	for c := range w.plans {
		w.plans[c] = planClient(seed, c, n)
	}
	return w, nil
}

// servicePhase is one life of the service: store, scheduler, HTTP server.
type servicePhase struct {
	st    *store.Store
	sched *service.Scheduler
	srv   *httptest.Server
}

// bootService opens the store at dir and serves a scheduler on it.
func bootService(rc *repCtx, parent *spanRef, dir string) (*servicePhase, error) {
	sp := rc.rec.begin(parent, 0, "store.open", "")
	st, err := store.Open(dir, store.Options{})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	sp = rc.rec.begin(parent, 0, "service.new", "")
	sched := service.New(service.Config{
		Durable: st, Runners: serveRunners, Workers: 1, QueueSize: serveQueueSize,
		// A rep submits 270 jobs and reads early ones back late; the
		// default history of 256 would evict what the script refers to.
		MaxHistory: serveClients * jobsPerClient,
		Machine:    sim.DefaultMachine(),
	})
	srv := httptest.NewServer(service.NewServer(sched))
	sp.end()
	return &servicePhase{st: st, sched: sched, srv: srv}, nil
}

func (p *servicePhase) close(rc *repCtx, parent *spanRef) error {
	sp := rc.rec.begin(parent, 0, "service.close", "")
	defer sp.end()
	p.srv.Close()
	ctx, cancel := context.WithTimeout(rc.ctx, 30*time.Second)
	defer cancel()
	if err := p.sched.Close(ctx); err != nil {
		return fmt.Errorf("close scheduler: %w", err)
	}
	if err := p.st.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return nil
}

// counts reads the per-layer counts at the service's own boundary.
func (p *servicePhase) counts(into map[string]float64) {
	for _, fam := range p.sched.Metrics().Snapshot() {
		var name string
		switch fam.Name {
		case "tuner_runs":
			name = "service.tuner_runs"
		case "memo_hits_total":
			name = "service.memo_hits"
		case "memo_misses_total":
			name = "service.memo_misses"
		case "dedup_coalesced_total":
			name = "service.dedup_coalesced"
		case "queue_rejections_total":
			name = "service.queue_rejections"
		case "store_compactions_total":
			name = "service.store_compactions"
		case "kernels_executed_total":
			name = "critter.kernels_executed"
		case "kernels_skipped_total":
			name = "critter.kernels_skipped"
		case "kernels_memoized_total":
			name = "critter.kernels_memoized"
		default:
			continue
		}
		for _, m := range fam.Metrics {
			into[name] += m.Value
		}
	}
}

// clientState is one client's progress through a rep.
type clientState struct {
	id        int
	http      *http.Client
	plan      []plannedJob
	jobIDs    []string // service job ID per script position
	envelopes [][]byte // result bytes per script position
	latencies []float64
	failed    int
	paper     paperSums
	// queueWaitMS and runMS come from JobStatus timestamps (traced runs).
	queueWaitMS, runMS []float64
}

func (w *serveWorkload) rep(rc *repCtx) (repOutput, error) {
	var out repOutput
	w.reps++
	dir := filepath.Join(w.dir, "serve-"+strconv.Itoa(w.reps))
	defer os.RemoveAll(dir)
	if rc.trace {
		out.counts = map[string]float64{}
	}

	clients := make([]*clientState, serveClients)
	for c := range clients {
		n := len(w.plans[c])
		clients[c] = &clientState{
			id: c, plan: w.plans[c], http: &http.Client{},
			jobIDs: make([]string, n), envelopes: make([][]byte, n),
		}
	}
	// The restart falls after the same script position of both clients.
	half := len(w.plans[0]) / 2
	bounds := [][2]int{{0, half}, {half, len(w.plans[0])}}
	var phase *servicePhase
	for pi, b := range bounds {
		var err error
		phase, err = bootService(rc, rc.root, dir)
		if err != nil {
			return out, err
		}
		run := rc.rec.begin(rc.root, 0, "clients", "")
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *clientState) {
				defer wg.Done()
				track := 1 + cl.id
				csp := rc.rec.begin(run, track, "client", "")
				defer csp.end()
				for i := b[0]; i < b[1]; i++ {
					if err := cl.do(rc, csp, track, phase.srv.URL, i); err != nil {
						errs[cl.id] = fmt.Errorf("client %d job %d (%s): %w", cl.id, i, cl.plan[i].Kind, err)
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		run.end()
		for _, err := range errs {
			if err != nil {
				phase.close(rc, rc.root)
				return out, err
			}
		}
		if rc.trace {
			phase.counts(out.counts)
		}
		if pi == len(bounds)-1 {
			rc.atEnd() // the service is still open
		}
		if err := phase.close(rc, rc.root); err != nil {
			return out, err
		}
	}

	h := sha256.New()
	var queueWait, runMS []float64
	for _, cl := range clients {
		for _, env := range cl.envelopes {
			h.Write(env)
		}
		out.ops += len(cl.plan)
		out.failed += cl.failed
		out.latencies = append(out.latencies, cl.latencies...)
		out.paper.add(cl.paper)
		queueWait = append(queueWait, cl.queueWaitMS...)
		runMS = append(runMS, cl.runMS...)
		cl.http.CloseIdleConnections()
	}
	h.Sum(out.digest[:0])
	if rc.trace {
		out.counts["service.queue_wait_p50_ms"] = median(queueWait)
		out.counts["service.run_p50_ms"] = median(runMS)
		out.counts["autotune.sweeps"] = float64(out.paper.Sweeps)
		out.counts["autotune.configs"] = float64(out.paper.Evals)
	}
	return out, nil
}

// do runs script position i: submit, follow the event stream to the
// terminal event, fetch the result, check it.
func (cl *clientState) do(rc *repCtx, parent *spanRef, track int, base string, i int) error {
	pj := cl.plan[i]
	jsp := rc.rec.begin(parent, track, "job", pj.Kind.String())
	defer jsp.end()
	t0 := time.Now()
	id := ""
	var st service.JobStatus
	if pj.Kind == jobReread {
		id = cl.jobIDs[pj.Ref]
	} else {
		sp := rc.rec.begin(jsp, track, "service.submit", pj.Study)
		var err error
		st, err = cl.submit(rc.ctx, base, pj.Body)
		sp.end()
		if err != nil {
			return err
		}
		id = st.ID
		sp = rc.rec.begin(jsp, track, "service.wait", pj.Study)
		terminal, started, swept, err := cl.follow(rc.ctx, base, id)
		sp.end()
		if err != nil {
			return err
		}
		if terminal != "done" {
			return fmt.Errorf("job %s ended %s", id, terminal)
		}
		if !started.IsZero() && !swept.IsZero() {
			rc.rec.add(jsp, track+serveClients, "autotune.sweep", pj.Study, started, swept)
		}
	}
	sp := rc.rec.begin(jsp, track, "service.result", pj.Study)
	env, err := cl.get(rc.ctx, base+"/v1/jobs/"+id+"/result")
	sp.end()
	if err != nil {
		return err
	}
	cl.latencies = append(cl.latencies, time.Since(t0).Seconds())
	cl.jobIDs[i], cl.envelopes[i] = id, env

	ok := true
	switch pj.Kind {
	case jobFresh:
		decoded, err := autotune.DecodeEnvelope(env)
		if err != nil || decoded.Result == nil {
			ok = false
			break
		}
		cl.paper.addResult(decoded.Result)
	case jobResubmit:
		// Answered from the memo (replayed, after the restart): born
		// terminal, and byte for byte the original's envelope.
		ok = st.Deduped && bytes.Equal(env, cl.envelopes[pj.Ref])
	case jobReread:
		ok = bytes.Equal(env, cl.envelopes[pj.Ref])
	}
	if !ok {
		cl.failed++
	}
	if rc.trace && pj.Kind == jobFresh {
		data, err := cl.get(rc.ctx, base+"/v1/jobs/"+id)
		if err != nil {
			return err
		}
		var fin service.JobStatus
		if err := json.Unmarshal(data, &fin); err != nil {
			return fmt.Errorf("decode status: %w", err)
		}
		cl.queueWaitMS = append(cl.queueWaitMS, float64(fin.Started.Sub(fin.Submitted).Nanoseconds())/1e6)
		cl.runMS = append(cl.runMS, float64(fin.Finished.Sub(fin.Started).Nanoseconds())/1e6)
		rc.rec.add(jsp, track+2*serveClients, "autotune.run", pj.Study, fin.Started, fin.Finished)
	}
	return nil
}

// submit POSTs a job, honouring 429 + Retry-After.
func (cl *clientState) submit(ctx context.Context, base string, body []byte) (service.JobStatus, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return service.JobStatus{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cl.http.Do(req)
		if err != nil {
			return service.JobStatus{}, fmt.Errorf("submit: %w", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return service.JobStatus{}, fmt.Errorf("submit: read body: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st service.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return st, fmt.Errorf("submit: decode status: %w", err)
			}
			return st, nil
		case http.StatusTooManyRequests:
			secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // absent or malformed: retry at once
			select {
			case <-time.After(time.Duration(secs) * time.Second):
			case <-ctx.Done():
				return service.JobStatus{}, ctx.Err()
			}
		default:
			return service.JobStatus{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

// follow reads the job's SSE stream to its terminal event, noting when
// the started and sweep events arrived.
func (cl *clientState) follow(ctx context.Context, base, id string) (terminal string, started, swept time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", started, swept, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return "", started, swept, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", started, swept, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		typ, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok {
			continue
		}
		switch typ {
		case "started":
			started = time.Now()
		case "sweep":
			swept = time.Now()
		case "done", "failed", "canceled":
			return typ, started, swept, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", started, swept, fmt.Errorf("events: %w", err)
	}
	return "", started, swept, fmt.Errorf("events: stream of %s ended without a terminal event", id)
}

func (cl *clientState) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("get: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("get %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}
