package main

// The report a suite run writes (-out) and -compare reads: per workload
// and metric, the value of every run, so medians and quartiles can be
// taken over runs.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

const reportSchema = 1

type metricValues struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// SeedDetermined: two values taken with the same seed must agree to
	// exactTol, whatever the bound.
	SeedDetermined bool `json:"seed_determined,omitempty"`
	// Values holds one value per run, in run order.
	Values []float64 `json:"values"`
}

func (m metricValues) median() float64 { return median(m.Values) }

// spread is the interquartile range over runs as a share of the median;
// unknown (false) with a single run.
func (m metricValues) spread() (float64, bool) {
	if len(m.Values) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(m.Values)
	med := m.median()
	if med == 0 {
		return 0, q1 == q3
	}
	return (q3 - q1) / math.Abs(med), true
}

type workloadReport struct {
	Name      string         `json:"name"`
	Why       string         `json:"why"`
	Reps      int            `json:"reps"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Warnings  []string       `json:"warnings,omitempty"`
	EndToEnd  []metricValues `json:"end_to_end"`
	PerLayer  []metricValues `json:"per_layer,omitempty"`
	// SpinMS is the drift canary before the first and after the last rep
	// of each run.
	SpinMS [][2]float64 `json:"box_spin_ms"`
	// SpanFile and SpanBalance describe the traced run's span file.
	SpanFile    string  `json:"span_file,omitempty"`
	SpanBalance float64 `json:"span_balance,omitempty"`
}

type report struct {
	Schema    int              `json:"schema"`
	Box       boxRecord        `json:"box"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []workloadReport `json:"workloads"`
	// Claim is always null: the benchmark measures, a change claims.
	Claim *string `json:"claim"`
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (w *workloadReport) endToEnd(name string) *metricValues {
	for i := range w.EndToEnd {
		if w.EndToEnd[i].Name == name {
			return &w.EndToEnd[i]
		}
	}
	return nil
}

// tolerance is how far two values of the metric may differ before they
// count as different: the bound, or exactTol for a seed-determined metric
// when both values come from the same seed.
func (m metricValues) tolerance(sameSeed bool) float64 {
	if m.SeedDetermined && sameSeed {
		return exactTol
	}
	return m.Bound
}

// addTimed appends one untraced run's values.
func (w *workloadReport) addTimed(tr *timedRun) {
	vals := tr.metrics()
	if w.EndToEnd == nil {
		for _, d := range endToEnd {
			w.EndToEnd = append(w.EndToEnd, metricValues{
				Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, SeedDetermined: d.SeedDetermined,
			})
		}
	}
	for i, d := range endToEnd {
		w.EndToEnd[i].Values = append(w.EndToEnd[i].Values, vals[d.Name])
	}
	w.Reps = len(tr.Reps)
	w.Attempted += tr.Ops
	w.Failed += tr.Failed
	w.Failures = append(w.Failures, tr.Failures...)
	w.Warnings = append(w.Warnings, tr.Warnings...)
	w.SpinMS = append(w.SpinMS, tr.SpinMS)
}

// addTraced appends one traced run's values.
func (w *workloadReport) addTraced(tr *tracedRun) {
	if w.PerLayer == nil {
		for _, d := range perLayer {
			w.PerLayer = append(w.PerLayer, metricValues{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
	}
	for i, d := range perLayer {
		w.PerLayer[i].Values = append(w.PerLayer[i].Values, tr.Metrics[d.Name])
	}
	w.Attempted += tr.Ops
	w.Failed += tr.Failed
	w.Failures = append(w.Failures, tr.Failures...)
	w.Warnings = append(w.Warnings, tr.Warnings...)
	w.SpanFile, w.SpanBalance = tr.SpanFile, tr.Balance
}

func (r *report) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func writeReport(path string, r *report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: report schema %d, this build reads %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// formatValue prints a metric with enough digits to tell two runs apart.
func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// printWorkload writes one workload's metrics by name with their units.
func printWorkload(out io.Writer, w *workloadReport) {
	fmt.Fprintf(out, "\n== %s: %d operations attempted, %d failed", w.Name, w.Attempted, w.Failed)
	if w.Reps > 0 {
		fmt.Fprintf(out, ", %d timed reps/run", w.Reps)
	}
	fmt.Fprintln(out)
	for _, m := range w.EndToEnd {
		line := fmt.Sprintf("  %-20s %14s %-6s", m.Name, formatValue(m.median()), m.Unit)
		if s, ok := m.spread(); ok {
			line += fmt.Sprintf("  spread %.2f%% of %d runs (bound %.0f%%)", 100*s, len(m.Values), 100*m.Bound)
		}
		fmt.Fprintln(out, line)
	}
	if len(w.PerLayer) > 0 {
		fmt.Fprintf(out, "  -- per layer (traced run; spans in %s, track balance %.3g)\n", w.SpanFile, w.SpanBalance)
		for _, m := range w.PerLayer {
			fmt.Fprintf(out, "  %-34s %14s %s\n", m.Name, formatValue(m.median()), m.Unit)
		}
	}
	for _, f := range w.Failures {
		fmt.Fprintf(out, "  FAILED: %s\n", f)
	}
	for _, warn := range w.Warnings {
		fmt.Fprintf(out, "  %s\n", warn)
	}
}

func printBox(out io.Writer, b boxRecord) {
	fmt.Fprintf(out, "box: %s, nproc %d, GOMAXPROCS %d, %s %s/%s, kernel %s\n",
		b.CPUModel, b.NProc, b.GOMAXPROCS, b.GoVersion, b.GOOS, b.GOARCH, b.Kernel)
}
