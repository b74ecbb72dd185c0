// Command benchdiff compares `go test -bench` output against the committed
// benchmark baseline (BENCH_runtime.json) and fails on regressions past a
// gate threshold. It is the CI guard for the Runtime benchmark suite
// (bench_runtime_test.go): allocs/op is hard-gated for both the propagation
// microbench and the full sweep, and the full sweep's ns/op is gated with
// generous headroom for runner noise; everything else is reported for trend
// reading.
//
// Usage:
//
//	go test -run '^$' -bench 'Propagation|FullSweep|MPIAllreduce|ProfilerCollective' -benchmem -count=5 . | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_runtime.json bench.txt
//
// With -emit-baseline, the committed baseline is re-printed in `go test
// -bench` format (for feeding benchstat alongside a fresh run); with
// -update, the baseline JSON's current-numbers section is rewritten from
// the measured input — tracked benchmarks get their numbers replaced, and
// benchmarks measured for the first time are added (gates and the frozen
// preRefactor block are left untouched; add gates for new benchmarks by
// hand).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's recorded numbers.
type Metrics struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

// Baseline is the schema of BENCH_runtime.json: the gated current numbers,
// the frozen pre-refactor numbers for trajectory context, and the gate
// specification.
type Baseline struct {
	SchemaVersion int    `json:"schemaVersion"`
	Suite         string `json:"suite"`
	// Benchmarks holds the committed numbers new runs are gated against.
	Benchmarks map[string]Metrics `json:"benchmarks"`
	// PreRefactor freezes the numbers from before the Runtime-layer
	// rebuild (PR 4), so the speedup trajectory stays visible.
	PreRefactor map[string]Metrics `json:"preRefactor,omitempty"`
	// Gates lists hard limits: a measured metric may exceed its committed
	// baseline by at most Ratio (1.20 = +20%).
	Gates []Gate `json:"gates"`
}

// Gate is one hard regression limit.
type Gate struct {
	Benchmark string  `json:"benchmark"`
	Metric    string  `json:"metric"` // "allocs_per_op", "ns_per_op", or "bytes_per_op"
	Ratio     float64 `json:"ratio"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_runtime.json", "baseline JSON path")
	emit := flag.Bool("emit-baseline", false, "print the baseline as go-bench lines and exit")
	update := flag.Bool("update", false, "rewrite the baseline's benchmark numbers from the measured input")
	flag.Parse()

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	if *emit {
		emitBaseline(os.Stdout, base)
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	raw, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}
	got := parseBench(string(raw))
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}

	if *update {
		added := 0
		for name, m := range got {
			if _, tracked := base.Benchmarks[name]; !tracked {
				added++
			}
			base.Benchmarks[name] = m
		}
		if err := writeBaseline(*baselinePath, base); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: baseline %s updated (%d benchmarks, %d new)\n",
			*baselinePath, len(got), added)
		return
	}

	failed := compare(os.Stdout, base, got)
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func writeBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseBench extracts per-benchmark medians from `go test -bench` output.
// Repetitions (-count) are reduced by median, which tolerates one noisy
// rep; the -N GOMAXPROCS suffix is stripped.
func parseBench(out string) map[string]Metrics {
	samples := map[string][]Metrics{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m Metrics
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, ok = v, true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if ok {
			samples[name] = append(samples[name], m)
		}
	}
	out2 := make(map[string]Metrics, len(samples))
	for name, ms := range samples {
		out2[name] = Metrics{
			NsPerOp:     median(ms, func(m Metrics) float64 { return m.NsPerOp }),
			BytesPerOp:  median(ms, func(m Metrics) float64 { return m.BytesPerOp }),
			AllocsPerOp: median(ms, func(m Metrics) float64 { return m.AllocsPerOp }),
		}
	}
	return out2
}

func median(ms []Metrics, f func(Metrics) float64) float64 {
	vs := make([]float64, len(ms))
	for i, m := range ms {
		vs[i] = f(m)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func metricOf(m Metrics, name string) float64 {
	switch name {
	case "ns_per_op":
		return m.NsPerOp
	case "bytes_per_op":
		return m.BytesPerOp
	case "allocs_per_op":
		return m.AllocsPerOp
	}
	return 0
}

// compare prints the trajectory table and evaluates the gates, returning
// whether any gate failed.
func compare(w io.Writer, base *Baseline, got map[string]Metrics) bool {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %14s %14s %9s %16s %9s\n",
		"benchmark", "ns/op", "baseline", "ratio", "allocs/op", "ratio")
	for _, name := range names {
		b := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "%-24s MISSING from measured input\n", name)
			continue
		}
		fmt.Fprintf(w, "%-24s %14.0f %14.0f %8.2fx %7.0f vs %5.0f %8.2fx\n",
			name, g.NsPerOp, b.NsPerOp, ratio(g.NsPerOp, b.NsPerOp),
			g.AllocsPerOp, b.AllocsPerOp, ratio(g.AllocsPerOp, b.AllocsPerOp))
		if pre, ok := base.PreRefactor[name]; ok && g.NsPerOp > 0 {
			fmt.Fprintf(w, "%-24s   vs pre-refactor: %.2fx faster, %.2fx fewer allocs/op\n",
				"", pre.NsPerOp/g.NsPerOp, safeDiv(pre.AllocsPerOp, g.AllocsPerOp))
		}
	}
	failed := false
	for _, gate := range base.Gates {
		b, okB := base.Benchmarks[gate.Benchmark]
		g, okG := got[gate.Benchmark]
		if !okB || !okG {
			fmt.Fprintf(w, "GATE %s %s: benchmark missing (baseline %v, measured %v)\n",
				gate.Benchmark, gate.Metric, okB, okG)
			failed = true
			continue
		}
		want, have := metricOf(b, gate.Metric)*gate.Ratio, metricOf(g, gate.Metric)
		if have > want {
			fmt.Fprintf(w, "GATE FAIL %s %s: measured %.0f > %.0f (baseline %.0f x %.2f)\n",
				gate.Benchmark, gate.Metric, have, want, metricOf(b, gate.Metric), gate.Ratio)
			failed = true
		} else {
			fmt.Fprintf(w, "GATE ok   %s %s: measured %.0f <= %.0f\n",
				gate.Benchmark, gate.Metric, have, want)
		}
	}
	return failed
}

func ratio(a, b float64) float64 { return safeDiv(a, b) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emitBaseline prints the committed numbers as go-bench lines, so benchstat
// can diff a fresh run against the baseline without a stored text file.
func emitBaseline(w io.Writer, base *Baseline) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := base.Benchmarks[name]
		fmt.Fprintf(w, "%s 1 %.0f ns/op %.0f B/op %.0f allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
}
