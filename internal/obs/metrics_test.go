package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	depth := 3.0
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	h := r.Histogram("latency_seconds", "latency", 0.1, 1, 10)

	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	depth -= 1.5
	for _, v := range []float64{0.0625, 0.5, 5, 50} {
		h.Observe(v)
	}

	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("snapshot has %d families, want 3", len(snaps))
	}
	if snaps[0].Name != "reqs_total" || snaps[0].Kind != KindCounter || snaps[0].Metrics[0].Value != 5 {
		t.Errorf("counter snapshot wrong: %+v", snaps[0])
	}
	// A gauge reads its callback when snapshotted, not when registered.
	if snaps[1].Name != "depth" || snaps[1].Kind != KindGauge || snaps[1].Metrics[0].Value != 1.5 {
		t.Errorf("gauge snapshot wrong: %+v", snaps[1])
	}
	hs := snaps[2].Metrics[0]
	if hs.Count != 4 || hs.Sum != 55.5625 {
		t.Errorf("histogram count/sum = %d/%v, want 4/55.5625", hs.Count, hs.Sum)
	}
	// Cumulative buckets: ≤0.1 → 1, ≤1 → 2, ≤10 → 3, +Inf → 4.
	wantCum := []int64{1, 2, 3, 4}
	for i, b := range hs.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
}

func TestVecFamiliesAndFuncs(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("kernels_total", "kernels", "workload", "outcome")
	vec.With("candmc", "executed").Add(7)
	vec.With("candmc", "skipped").Add(3)
	vec.With("candmc", "executed").Inc()

	depth := 42.0
	r.GaugeFunc("live_depth", "sampled", func() float64 { return depth })
	r.GaugeVecFunc("memo_hits", "per-entry hits", []string{"fingerprint"}, func() []Sample {
		return []Sample{{Labels: []string{"abc"}, Value: 2}}
	})

	snaps := r.Snapshot()
	kt := snaps[0]
	if len(kt.Metrics) != 2 {
		t.Fatalf("vec has %d cells, want 2", len(kt.Metrics))
	}
	if kt.Metrics[0].Value != 8 || kt.Metrics[0].Labels[1] != "executed" {
		t.Errorf("first cell = %+v", kt.Metrics[0])
	}
	if snaps[1].Metrics[0].Value != 42 {
		t.Errorf("gauge func = %v, want 42", snaps[1].Metrics[0].Value)
	}
	if got := snaps[2].Metrics[0]; got.Value != 2 || got.Labels[0] != "abc" {
		t.Errorf("gauge vec func cell = %+v", got)
	}

	// Snapshots are JSON-marshalable and stable.
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b, _ := json.Marshal(r.Snapshot())
	if string(a) != string(b) {
		t.Error("consecutive snapshots differ")
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "")
	for name, fn := range map[string]func(){
		"duplicate name":  func() { r.GaugeFunc("a_total", "", func() float64 { return 0 }) },
		"bad metric name": func() { r.Counter("0bad", "") },
		"le label":        func() { r.CounterVec("b_total", "", "le") },
		"arity mismatch": func() {
			v := r.CounterVec("c_total", "", "x")
			v.With("1", "2")
		},
		"negative counter": func() {
			c := r.Counter("d_total", "")
			c.Add(-1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_completed_total", "finished jobs").Add(2)
	r.CounterVec("kernels_total", "kernels", "workload").With(`we"ird\nl`).Inc()
	h := r.Histogram("dur_seconds", "durations", 1, 5)
	h.Observe(0.5)
	h.Observe(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_completed_total counter\n",
		"jobs_completed_total 2\n",
		"# HELP jobs_completed_total finished jobs\n",
		`kernels_total{workload="we\"ird\\nl"} 1` + "\n",
		`dur_seconds_bucket{le="1"} 1` + "\n",
		`dur_seconds_bucket{le="5"} 1` + "\n",
		`dur_seconds_bucket{le="+Inf"} 2` + "\n",
		"dur_seconds_sum 7.5\n",
		"dur_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// Every non-comment line is `name{...} value` — a minimal format check.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestConcurrentHotPaths(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	// The gauge's callback races the increments; every snapshot samples it.
	r.GaugeFunc("g", "", func() float64 { return float64(c.Value()) })
	h := r.Histogram("h", "", 10, 100)
	vec := r.CounterVec("v_total", "", "k")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				c.Inc()
				h.Observe(float64(n % 200))
				vec.With([]string{"a", "b"}[i%2]).Inc()
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Snapshot()
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	snap := r.Snapshot()
	if g := snap[1].Metrics[0].Value; g != 8000 {
		t.Errorf("gauge = %v, want 8000", g)
	}
	if snap[2].Metrics[0].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", snap[2].Metrics[0].Count)
	}
	total := snap[3].Metrics[0].Value + snap[3].Metrics[1].Value
	if total != 8000 {
		t.Errorf("vec total = %v, want 8000", total)
	}
}
