package main

// The measuring loop shared by the four workloads: the set-up (build the
// workload and run one untimed warm-up rep, whose digest becomes the
// reference), then a fixed number of timed reps, each checked against the
// reference and measured from outside — wall clock, process CPU, heap
// bytes allocated.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// The harness's fixed parallelism (ISSUE: the reference box has two cores).
const (
	maxProcs     = 2 // GOMAXPROCS is pinned to min(nproc, maxProcs)
	tunerWorkers = 2 // Tuner.Workers and the RunTuners pool
)

// repCtx is what one rep receives from the harness.
type repCtx struct {
	ctx  context.Context
	rec  *spanRec // nil when tracing is off
	root *spanRef // the rep's span
	// trace asks the workload for the per-layer counts that cost extra
	// work to collect (status fetches, metric snapshots).
	trace bool
	// atEnd is called once per rep while everything the rep built is
	// still live; the harness measures retained heap inside it.
	atEnd func()
}

// repOutput is what one rep hands back.
type repOutput struct {
	// digest covers every result envelope of the rep, in a fixed order.
	digest [sha256.Size]byte
	paper  paperSums
	// ops counts operations attempted (configurations evaluated, or jobs)
	// and failed counts those whose checks failed inside the rep.
	ops, failed int
	// latencies are the rep's job latencies in seconds: submit to result
	// fetched on serve-mixed, the duration of each Tuner.Run elsewhere.
	latencies []float64
	// counts are per-layer counts read at the layer's own boundary.
	counts map[string]float64
}

// workload is one benchmark workload, built from a seed.
type workload interface {
	// rep runs the whole workload once.
	rep(rc *repCtx) (repOutput, error)
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed uint64, env *runEnv) (workload, error) {
	switch name {
	case "grid-quick":
		return newGridQuick(seed, env)
	case "grid-default":
		return newGridDefault(seed, env)
	case "search-warm":
		return newSearchWarm(seed, env)
	case "serve-mixed":
		return newServeMixed(seed, env)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runEnv carries what workloads need from the process: where the repo is
// (goldens) and where to put temporary files.
type runEnv struct {
	root   string // checkout root
	tmpDir string // scratch inside the checkout, removed on exit
	smoke  bool   // scaled-down inputs for the self-tests
}

// repSample is one timed rep as measured from outside.
type repSample struct {
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

const mb = 1 << 20

// retainedMB forces two collections (the second frees what finalizers of
// the first released) and reads the live heap.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mb
}

// measureRep runs one rep between a forced GC and the closing readings.
// When retained is non-nil the live heap is measured at the rep's atEnd
// point and the time spent doing so is taken back out of the sample.
func measureRep(ctx context.Context, w workload, rec *spanRec, repID int, trace bool, retained *float64) (repSample, repOutput, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var pausedWall, pausedCPU float64
	rec.setRep(repID)
	rc := &repCtx{ctx: ctx, rec: rec, trace: trace, atEnd: func() {}}
	if retained != nil {
		rc.atEnd = func() {
			t, c := time.Now(), cpuSeconds()
			*retained = retainedMB()
			pausedWall, pausedCPU = time.Since(t).Seconds(), cpuSeconds()-c
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	rc.root = rec.begin(nil, 0, "rep", "")
	out, err := w.rep(rc)
	rc.root.end()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	return repSample{
		WallS:   wall - pausedWall,
		CPUS:    cpu - pausedCPU,
		AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / mb,
	}, out, err
}

// timedRun is everything an untraced run of one workload measured.
type timedRun struct {
	Workload  string
	Reps      []repSample
	SetupS    float64
	Latencies []float64 // pooled over the timed reps
	Retained  float64
	Paper     paperSums
	Ops       int
	Failed    int
	Failures  []string // what failed, for the report
	Warnings  []string
	SpinMS    [2]float64
}

// account books one rep's operations. A rep whose results differ from the
// reference's has failed as a whole, so its operations count as failed
// once, however many checks say so.
func (tr *timedRun) account(what string, out, ref repOutput) {
	failed := out.failed
	if failed > 0 {
		tr.Failures = append(tr.Failures, fmt.Sprintf("%s: %d operations failed their checks", what, failed))
	}
	if out.digest != ref.digest {
		failed = out.ops
		tr.Failures = append(tr.Failures, what+": result digest differs from the warm-up rep's")
	}
	if !out.paper.equal(ref.paper) {
		failed = out.ops
		tr.Failures = append(tr.Failures, what+": seed-determined metrics differ from the first warm-up rep's")
	}
	tr.Ops += out.ops
	tr.Failed += failed
}

// runTimed sets the workload up and measures reps timed reps with tracing
// off.
func runTimed(ctx context.Context, def workloadDef, seed uint64, reps int, env *runEnv) (*timedRun, error) {
	tr := &timedRun{Workload: def.Name}
	tr.SpinMS[0] = spinMS()
	t0 := time.Now()
	w, err := newWorkload(def.Name, seed, env)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	_, ref, err := measureRep(ctx, w, nil, 0, false, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up rep: %w", def.Name, err)
	}
	tr.SetupS = time.Since(t0).Seconds()
	tr.account("warm-up rep", ref, ref)
	tr.Paper = ref.paper
	for i := 0; i < reps; i++ {
		var retained *float64
		if i == reps-1 {
			retained = &tr.Retained
		}
		s, out, err := measureRep(ctx, w, nil, i+1, false, retained)
		if err != nil {
			return nil, fmt.Errorf("%s: rep %d: %w", def.Name, i+1, err)
		}
		tr.Reps = append(tr.Reps, s)
		tr.Latencies = append(tr.Latencies, out.latencies...)
		tr.account(fmt.Sprintf("rep %d", i+1), out, ref)
	}
	tr.SpinMS[1] = spinMS()
	if warn := spinDriftWarning(def.Name, tr.SpinMS); warn != "" {
		tr.Warnings = append(tr.Warnings, warn)
	}
	return tr, nil
}

// metrics folds a timed run into the end-to-end metric values.
func (tr *timedRun) metrics() map[string]float64 {
	col := func(f func(repSample) float64) []float64 {
		xs := make([]float64, len(tr.Reps))
		for i, r := range tr.Reps {
			xs[i] = f(r)
		}
		return xs
	}
	return map[string]float64{
		"setup_s":           tr.SetupS,
		"wall_s":            median(col(func(r repSample) float64 { return r.WallS })),
		"job_p50_s":         median(tr.Latencies),
		"alloc_mb":          median(col(func(r repSample) float64 { return r.AllocMB })),
		"retained_mb":       tr.Retained,
		"tuning_speedup":    tr.Paper.tuningSpeedup(),
		"pred_err_pct":      tr.Paper.predErrPct(),
		"selection_quality": tr.Paper.selectionQuality(),
		"executed_frac":     tr.Paper.executedFrac(),
	}
}
