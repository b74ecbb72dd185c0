package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's contract in one place: workload names, end-to-end metric
// names with unit, direction and bound, and the nominal rep lengths that
// turn -seconds into a fixed rep count. BENCHMARK.json repeats the names
// and bounds; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// metricDef declares one end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression. The driver takes
	// medians over runs with different seeds, so for a seed-determined
	// metric it covers the seed-to-seed variation and nothing else.
	Bound float64
	// SeedDetermined metrics are functions of the generated inputs alone:
	// identical in every rep of a run and in every run with the same
	// seed, on any box. The harness fails itself when two reps disagree,
	// and two runs with one seed (-aa, -compare) are held to exactTol.
	SeedDetermined bool
	Def            string
}

// exactTol is the relative tolerance two values of a seed-determined
// metric taken with the same seed are held to.
const exactTol = 1e-12

// endToEnd lists the metrics a user of the system would see, in report
// order. README.md has the measured spreads behind each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false, "build studies / open store / boot server + one untimed warm-up rep"},
	{"wall_s", "s", "lower", 0.25, false, "median wall time of one rep"},
	{"job_p50_s", "s", "lower", 0.25, false, "serve-mixed: median submit -> result-fetched latency, pooled over all reps; elsewhere the median duration of one Tuner.Run"},
	{"alloc_mb", "MB", "lower", 0.10, false, "median heap bytes allocated in one rep (MemStats.TotalAlloc delta)"},
	{"retained_mb", "MB", "lower", 0.25, false, "HeapAlloc after two forced GCs at the end of the last rep, results (and the service) still live"},
	{"tuning_speedup", "x", "higher", 0.05, true, "sum of SweepResult.FullWall over sum of SweepResult.TuneWall, every sweep of a rep (virtual time)"},
	{"pred_err_pct", "%", "lower", 0.25, true, "100 x geometric mean of ConfigResult.ExecErr over every evaluation of a rep (zeros floored at 2^-20 as stats.MeanLogErr does)"},
	{"selection_quality", "ratio", "higher", 0.10, true, "mean over sweeps of Full.Wall[Optimal] / Full.Wall[Selected]; 1 = the true optimum was chosen"},
	{"executed_frac", "ratio", "lower", 0.05, true, "executed kernels over executed + skipped kernels"},
}

// workloadDef declares one workload.
type workloadDef struct {
	Name string
	Why  string
	// RepSeconds is the nominal wall time of one rep on the reference box
	// (README.md). The rep count is seconds/RepSeconds rounded, so a run
	// does a fixed amount of work and pools a fixed number of latency
	// samples whatever the box's speed.
	RepSeconds float64
	// MinReps keeps a short -seconds from degenerating to one rep.
	MinReps int
}

var workloadDefs = []workloadDef{
	{
		Name:       "grid-quick",
		Why:        "tiny kernels on 8-rank worlds: per-message and per-kernel overhead of mpi+critter dominates, numerics are under a quarter",
		RepSeconds: 1.5, MinReps: 3,
	},
	{
		Name:       "grid-default",
		Why:        "32- and 64-rank worlds with real tile sizes: blas+lapack numerics dominate, runtime overhead is a minor share",
		RepSeconds: 8.5, MinReps: 2,
	},
	{
		Name:       "search-warm",
		Why:        "warm-start campaigns: profile export/encode/decode/merge, short sweeps with high fixed cost, the surrogate fit",
		RepSeconds: 1.4, MinReps: 3,
	},
	{
		Name:       "serve-mixed",
		Why:        "two closed-loop HTTP clients on a durable service with a mid-run restart: queueing, persistence, JSON and replay dominate",
		RepSeconds: 9.3, MinReps: 2,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// repCount turns a measuring time into the fixed number of timed reps.
func (w workloadDef) repCount(seconds float64) int {
	n := int(seconds/w.RepSeconds + 0.5)
	if n < w.MinReps {
		n = w.MinReps
	}
	return n
}

// layerMetricDef declares one per-layer metric. README.md says which
// end-to-end metric each should move, on which workload.
type layerMetricDef struct {
	Name, Unit, Better string
}

func lower(unit string, names ...string) []layerMetricDef {
	return layerDefs(unit, "lower", names)
}

func higher(unit string, names ...string) []layerMetricDef {
	return layerDefs(unit, "higher", names)
}

func layerDefs(unit, better string, names []string) []layerMetricDef {
	out := make([]layerMetricDef, len(names))
	for i, n := range names {
		out[i] = layerMetricDef{n, unit, better}
	}
	return out
}

// perLayer lists every metric of the traced run, in report order.
var perLayer = func() []layerMetricDef {
	var all []layerMetricDef
	add := func(defs ...[]layerMetricDef) {
		for _, d := range defs {
			all = append(all, d...)
		}
	}
	add(
		// sim, stats
		lower("ns", "sim.noise_ns", "stats.welford_add_ns", "stats.predictable_ns"),
		// blas, lapack
		lower("ns", "blas.dgemm_n8_ns"),
		higher("Gflop/s", "blas.dgemm_n64_gflops", "blas.dsyrk_n64_gflops", "blas.dtrsm_n64_gflops",
			"lapack.potrf_n64_gflops", "lapack.geqrt_n64_gflops", "lapack.tpqrt_n64_gflops"),
		// mpi
		lower("us", "mpi.world_run_us"),
		lower("ns", "mpi.pingpong_ns", "mpi.allreduce8_ns", "mpi.allreduce64_ns", "mpi.bcast8_ns"),
		lower("us", "mpi.split_us"),
		// critter
		lower("ns", "critter.kernel_exec_ns", "critter.kernel_skip_ns", "critter.allreduce8_ns"),
		lower("x", "critter.intercept_overhead_x"),
		lower("us", "critter.startconfig_us", "critter.report_us", "critter.profile_export_us",
			"critter.profile_encode_us", "critter.profile_decode_us", "critter.profile_merge_us"),
		lower("count", "critter.kernels_executed"),
		higher("count", "critter.kernels_skipped", "critter.kernels_memoized"),
		higher("ratio", "critter.memo_hit_frac"),
		// capital, slate, candmc
		lower("ms", "libs.config_ms.capital", "libs.config_ms.slate-chol", "libs.config_ms.candmc", "libs.config_ms.slate-qr"),
		// autotune
		lower("ms", "autotune.run_ms.capital", "autotune.run_ms.slate-chol", "autotune.run_ms.candmc",
			"autotune.run_ms.slate-qr", "autotune.sweep_p50_ms"),
		higher("count", "autotune.sweeps", "autotune.configs"),
		lower("us", "autotune.plan_exhaustive_us", "autotune.plan_surrogate_us"),
		lower("ms", "autotune.envelope_encode_ms", "autotune.envelope_decode_ms"),
		lower("s", "autotune.workers1_wall_s"),
		higher("x", "autotune.parallel_speedup"),
		// surrogate, workload
		lower("us", "surrogate.fit_us"),
		lower("ns", "surrogate.predict_ns"),
		lower("us", "workload.resolve_us"),
		// store
		lower("us", "store.append_1k_us", "store.append_64k_us"),
		lower("ns", "store.get_ns"),
		lower("ms", "store.open_replay_ms", "store.compact_ms"),
		lower("B", "store.bytes_written"),
		// service
		lower("us", "service.parse_us", "service.submit_us", "service.memo_hit_us"),
		higher("ratio", "service.coalesce_frac"),
		lower("ms", "service.http_result_ms", "service.restart_replay_ms", "service.overhead_ms",
			"service.job_p95_ms", "service.queue_wait_p50_ms", "service.run_p50_ms"),
		lower("count", "service.tuner_runs"),
		higher("count", "service.memo_hits"),
		lower("count", "service.memo_misses"),
		higher("count", "service.dedup_coalesced"),
		lower("count", "service.queue_rejections", "service.store_compactions"),
		// obs
		lower("ns", "obs.counter_inc_ns", "obs.ring_emit_ns"),
		lower("us", "obs.prometheus_write_us"),
		lower("%", "obs.tuner_trace_overhead_pct"),
	)
	// process and box
	for _, name := range shareNames {
		all = append(all, layerMetricDef{"cpu_share." + name + "_pct", "%", "lower"})
	}
	add(
		lower("s", "proc.cpu_s"),
		lower("MB", "proc.peak_rss_mb"),
		lower("count", "proc.gc_count"),
		lower("ms", "proc.gc_pause_ms"),
		lower("s", "wall_min_s", "wall_iqr_s"),
		lower("%", "trace.overhead_pct"),
		lower("ms", "box.spin_ms"),
	)
	return all
}()

// runSeconds is the measuring time the driver passes as -seconds.
const runSeconds = 15

// benchmarkJSON renders the contract file from the declarations above
// (bench -spec > BENCHMARK.json).
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		file.Workloads = append(file.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, boundedJSON{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		file.PerLayer = append(file.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("contract: %v", err)) // plain values only
	}
	return data
}
