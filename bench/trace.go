package main

// The traced run: the same workload with harness spans recorded and a CPU
// profile taken, plus the layer probes. End-to-end metrics never come from
// here; the difference between this run's traced and untraced reps is the
// tracing overhead.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// tracedRun is everything a traced run of one workload measured.
type tracedRun struct {
	Workload string
	Metrics  map[string]float64 // every perLayer metric
	Ops      int
	Failed   int
	Failures []string
	Warnings []string
	SpanFile string
	Spans    int
	// Balance is the worst relative gap between a track's summed self
	// times and its top-level spans' durations (0 = spans nest exactly).
	Balance float64
}

// tracedShare is the share of -seconds the traced run spends on reps of
// each kind (untraced, then traced); the probes take the rest.
const tracedShare = 0.3

// cpuProfileHz is the sampling rate of the traced reps' CPU profile.
const cpuProfileHz = 500

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runTraced(ctx context.Context, def workloadDef, seed uint64, seconds float64, env *runEnv, outDir string) (*tracedRun, error) {
	tr := &tracedRun{Workload: def.Name, Metrics: map[string]float64{}}
	for _, d := range perLayer {
		tr.Metrics[d.Name] = 0
	}
	spin0 := spinMS()
	w, err := newWorkload(def.Name, seed, env)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	_, ref, err := measureRep(ctx, w, nil, 0, false, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up rep: %w", def.Name, err)
	}
	check := func(what string, out repOutput) {
		failed := out.failed
		if failed > 0 {
			tr.Failures = append(tr.Failures, fmt.Sprintf("%s: %d operations failed their checks", what, failed))
		}
		if out.digest != ref.digest {
			failed = out.ops
			tr.Failures = append(tr.Failures, what+": result digest differs from the warm-up rep's")
		}
		tr.Ops += out.ops
		tr.Failed += failed
	}
	check("warm-up rep", ref)

	// Untraced and traced reps alternate, so drift of the box falls on
	// both sides of the overhead figure alike. Each traced rep has its own
	// CPU profile; the samples are pooled.
	reps := max(1, int(seconds*tracedShare/def.RepSeconds+0.5))
	var plain, traced, plainCPU []float64
	rec := newSpanRec(def.Name)
	var samples []stackSample
	var counts map[string]float64
	var latencies []float64 // service jobs of the untraced reps
	var gcCount uint32
	var gcPauseNs uint64
	for i := 0; i < reps; i++ {
		s, out, err := measureRep(ctx, w, nil, i+1, false, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced rep %d: %w", def.Name, i+1, err)
		}
		check(fmt.Sprintf("untraced rep %d", i+1), out)
		plain = append(plain, s.WallS)
		plainCPU = append(plainCPU, s.CPUS)
		latencies = append(latencies, out.latencies...)

		var prof bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		// Five times pprof's 100 samples a second: the surrogate is about
		// 0.3% of search-warm's CPU, two samples of a traced run at 100 Hz
		// and none in one run of seven. The rate is set here because
		// StartCPUProfile has no parameter for it; its own attempt to set
		// 100 Hz is then refused by the runtime (with a line on standard
		// error) and the profile is taken at this rate. Shares are ratios
		// of sample counts, so the period in the profile's header is moot.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", def.Name, err)
		}
		s, out, err = measureRep(ctx, w, rec, i+1, true, nil)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("%s: traced rep %d: %w", def.Name, i+1, err)
		}
		check(fmt.Sprintf("traced rep %d", i+1), out)
		traced = append(traced, s.WallS)
		counts = out.counts // per rep, and every rep's are the same
		gcCount += m1.NumGC - m0.NumGC
		gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		repSamples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
		samples = append(samples, repSamples...)
	}

	m := tr.Metrics
	for name, v := range counts {
		m[name] = v
	}
	if def.Name == "serve-mixed" {
		p95, err := percentile(latencies, 95)
		if err != nil {
			return nil, fmt.Errorf("%s: job latencies: %w", def.Name, err)
		}
		m["service.job_p95_ms"] = 1e3 * p95
	}
	if skipped := m["critter.kernels_skipped"]; skipped > 0 {
		m["critter.memo_hit_frac"] = m["critter.kernels_memoized"] / skipped
	}
	for name, pct := range foldShares(samples) {
		m["cpu_share."+name+"_pct"] = pct
	}

	spans := rec.finish()
	tr.Spans, tr.Balance = len(spans), trackBalance(spans)
	for _, study := range []string{"capital", "slate-chol", "candmc", "slate-qr"} {
		if d := spanDurations(spans, "autotune.run", study); len(d) > 0 {
			m["autotune.run_ms."+study] = median(d)
		}
	}
	if d := spanDurations(spans, "autotune.sweep", ""); len(d) > 0 {
		m["autotune.sweep_p50_ms"] = median(d)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", def.Name, err)
	}
	tr.SpanFile = filepath.Join(outDir, "trace-"+def.Name+".jsonl")
	if err := writeSpans(tr.SpanFile, spans); err != nil {
		return nil, err
	}

	probes, err := runProbes(ctx, env)
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		m[name] = v
	}

	q1, q3 := quartiles(plain)
	m["proc.cpu_s"] = median(plainCPU)
	m["wall_min_s"] = sortedCopy(plain)[0]
	m["wall_iqr_s"] = q3 - q1
	m["trace.overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.gc_count"] = float64(gcCount) / float64(reps)
	m["proc.gc_pause_ms"] = float64(gcPauseNs) / 1e6 / float64(reps)
	spin1 := spinMS()
	m["box.spin_ms"] = spin1
	if warn := spinDriftWarning(def.Name, [2]float64{spin0, spin1}); warn != "" {
		tr.Warnings = append(tr.Warnings, warn)
	}
	return tr, nil
}
