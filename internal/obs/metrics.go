// Package obs is the stdlib-only observability layer: a metrics registry
// (counters and fixed-bucket histograms with atomic hot paths, labeled
// counter families, and gauges that are callbacks sampled at snapshot
// time) with a snapshot API, plus a dual-clock tracing facility (trace.go)
// whose events carry virtual time from the deterministic simulation layers
// and wall time from the service layer. The package sits below internal/service in the dependency order
// so the mpi world, the profiler, and the tuner can emit through it, and
// it is itself a critterlint-deterministic layer: the only wall-clock
// reference lives in clock.go, the single sanctioned injection point.
//
// Nothing here writes to the network or the filesystem; the registry
// renders itself as JSON (Snapshot) or Prometheus text exposition format
// (WritePrometheus) and leaves serving to the HTTP layer.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing count. Inc and Add are lock-free
// and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed buckets. Observe is lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	sumBits atomic.Uint64
	n       atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sample is one labeled value produced by a callback family
// (GaugeVecFunc): the label values (matching the family's label names)
// and the sampled reading.
type Sample struct {
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// metric is one child of a family: exactly one of the typed cells is set,
// matching the family's kind.
type metric struct {
	labels []string
	c      *Counter
	h      *Histogram
}

// family is one registered metric name: its metadata plus its children
// (one for unlabeled metrics, one per label-value combination for
// vectors). childOrder keeps snapshots deterministic without sorting at
// render time.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64

	mu         sync.Mutex
	children   map[string]*metric
	childOrder []string

	// fn, when set, makes this a callback family: children are ignored
	// and every snapshot re-samples the callback.
	fn func() []Sample
}

// Registry is a set of metric families. Registration methods panic on
// misuse (duplicate names, bad label cardinality) — metrics are wired at
// construction time, so failing loudly beats serving a corrupt catalog.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName matches the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register installs a new family, panicking on duplicates or bad names.
func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	f.children = make(map[string]*metric)
	r.fams[f.name] = f
	r.order = append(r.order, f.name)
	return f
}

// child returns the family's cell for the given label values, creating it
// on first use.
func (f *family) child(values []string) *metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[key]
	if !ok {
		m = &metric{labels: append([]string(nil), values...)}
		switch f.kind {
		case KindCounter:
			m.c = &Counter{}
		case KindHistogram:
			h := &Histogram{bounds: f.buckets}
			h.counts = make([]atomic.Int64, len(f.buckets)+1)
			m.h = h
		}
		f.children[key] = m
		f.childOrder = append(f.childOrder, key)
	}
	return m
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, kind: KindCounter})
	return f.child(nil).c
}

// Histogram registers and returns an unlabeled histogram with the given
// ascending bucket upper bounds (an implicit +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	f := r.register(&family{name: name, help: help, kind: KindHistogram, buckets: append([]float64(nil), bounds...)})
	return f.child(nil).h
}

// GaugeFunc registers a gauge sampled by callback at snapshot time — for
// readings that already live elsewhere (queue depths, log sizes) and
// would otherwise need shadow bookkeeping. fn must be safe to call from
// any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: KindGauge, fn: func() []Sample {
		return []Sample{{Value: fn()}}
	}})
}

// GaugeVecFunc registers a labeled gauge family sampled by callback at
// snapshot time; fn returns one Sample per live label combination and
// must be safe to call from any goroutine.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, kind: KindGauge, labels: append([]string(nil), labels...), fn: fn})
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, kind: KindCounter, labels: append([]string(nil), labels...)})}
}

// With returns the counter cell for the given label values, creating it
// on first use. Hot paths should cache the returned *Counter.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).c }

// BucketSnapshot is one histogram bucket in a snapshot: its inclusive
// upper bound (+Inf rendered as the JSON string "+Inf" by UpperBound's
// marshaling being a float — math.Inf encodes via the text format only;
// JSON snapshots clamp it to math.MaxFloat64) and the cumulative count.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MetricSnapshot is one cell of a family snapshot.
type MetricSnapshot struct {
	Labels  []string         `json:"labels,omitempty"`
	Value   float64          `json:"value"`
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// FamilySnapshot is one metric family in a registry snapshot — the JSON
// shape of GET /v1/metrics.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    Kind             `json:"kind"`
	Labels  []string         `json:"labels,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// snapshotFamily renders one family. Callback families re-sample their
// callback; stored families render children in creation order.
func (f *family) snapshot() FamilySnapshot {
	out := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: append([]string(nil), f.labels...)}
	if f.fn != nil {
		for _, s := range f.fn() {
			out.Metrics = append(out.Metrics, MetricSnapshot{Labels: s.Labels, Value: s.Value})
		}
		if out.Metrics == nil {
			out.Metrics = []MetricSnapshot{}
		}
		return out
	}
	f.mu.Lock()
	children := make([]*metric, 0, len(f.childOrder))
	for _, key := range f.childOrder {
		children = append(children, f.children[key])
	}
	f.mu.Unlock()
	out.Metrics = make([]MetricSnapshot, 0, len(children))
	for _, m := range children {
		ms := MetricSnapshot{Labels: m.labels}
		switch f.kind {
		case KindCounter:
			ms.Value = float64(m.c.Value())
		case KindHistogram:
			var cum int64
			for i := range m.h.counts {
				cum += m.h.counts[i].Load()
				ub := math.MaxFloat64
				if i < len(m.h.bounds) {
					ub = m.h.bounds[i]
				}
				ms.Buckets = append(ms.Buckets, BucketSnapshot{UpperBound: ub, Count: cum})
			}
			ms.Count = m.h.n.Load()
			ms.Sum = math.Float64frombits(m.h.sumBits.Load())
			ms.Value = float64(ms.Count)
		}
		out.Metrics = append(out.Metrics, ms)
	}
	return out
}

// Snapshot renders every family in registration order. The result is
// JSON-marshalable and stable: families in registration order, cells in
// creation order.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promLabels renders a {k="v",...} block, empty for no labels. extra is an
// optional trailing label (histograms' le).
func promLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(v))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a sample value for the text format.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one sample line per
// cell, histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		snap := f.snapshot()
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, m := range snap.Metrics {
			if f.kind == KindHistogram {
				for i, b := range m.Buckets {
					ub := "+Inf"
					if i < len(f.buckets) {
						ub = promFloat(f.buckets[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(f.labels, m.Labels, "le", ub), b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, promLabels(f.labels, m.Labels, "", ""), promFloat(m.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(f.labels, m.Labels, "", ""), m.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.labels, m.Labels, "", ""), promFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
