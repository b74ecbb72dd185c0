// Command critter-trace summarizes a JSONL trace written by critter-tune
// -trace (or any obs.JSONL tracer): a per-phase breakdown of event
// counts, completed spans, wall time (from the tracer's WallNanos
// stamps), virtual time (from the simulation's clocks), and heap growth,
// plus a per-op table of the kernel-propagation rounds. The rounds table
// separates memoized skips — rounds whose skip decision was replayed from
// the profiler's per-kernel decision cache rather than freshly tested — so
// the cache's contribution to a run is visible per operation.
//
// Usage:
//
//	critter-trace trace.jsonl
//	critter-tune -study capital -eps 0.125 -trace /dev/stdout | critter-trace -
//
// Wall durations are computed by pairing begin/end events of the same
// span identity (kind + job + policy + eps + config). Concurrent sweeps
// interleave freely in the file; pairing by identity keeps their
// durations separate. Unpaired begins (a crashed or truncated run) are
// reported, not silently dropped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"critter/internal/obs"
)

// spanKey identifies one span across its begin/end pair.
type spanKey struct {
	kind   string
	job    string
	policy string
	eps    float64
	config int
}

// phaseStats accumulates one kind's row of the summary table.
type phaseStats struct {
	events    int
	spans     int
	unpaired  int
	wallNanos int64
	virtual   float64
	alloc     uint64
	errors    int
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: critter-trace <trace.jsonl | ->")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "critter-trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if err := summarize(in, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "critter-trace: %v\n", err)
		os.Exit(1)
	}
}

// kindOrder fixes the table's row order outermost-first; kinds the file
// introduces beyond these append after, in first-seen order.
var kindOrder = []string{obs.KindJob, obs.KindSweep, obs.KindConfig, obs.KindStrategy, obs.KindRound}

// summarize reads one JSONL trace and writes the breakdown tables.
func summarize(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	stats := make(map[string]*phaseStats)
	var order []string
	forKind := func(kind string) *phaseStats {
		ps, ok := stats[kind]
		if !ok {
			ps = &phaseStats{}
			stats[kind] = ps
			order = append(order, kind)
		}
		return ps
	}
	for _, k := range kindOrder {
		forKind(k)
	}

	open := make(map[spanKey]int64)     // span identity -> begin WallNanos
	rounds := make(map[string]*opStats) // round op -> counts
	schema := 0
	total, malformed := 0, 0

	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if line == 1 {
			var hdr struct {
				TraceSchemaVersion int `json:"traceSchemaVersion"`
			}
			if err := json.Unmarshal(raw, &hdr); err == nil && hdr.TraceSchemaVersion > 0 {
				schema = hdr.TraceSchemaVersion
				continue
			}
			// No header: a bare event stream is still summarizable.
		}
		var ev obs.Event
		if err := json.Unmarshal(raw, &ev); err != nil || ev.Kind == "" {
			malformed++
			continue
		}
		total++
		ps := forKind(ev.Kind)
		ps.events++
		if ev.Error != "" {
			ps.errors++
		}
		if ev.Kind == obs.KindRound {
			os, ok := rounds[ev.Name]
			if !ok {
				os = &opStats{}
				rounds[ev.Name] = os
			}
			os.count++
			if ev.Memoized > 0 {
				os.memoized++
			}
		}
		key := spanKey{kind: ev.Kind, job: ev.Job, policy: ev.Policy, eps: ev.Eps, config: ev.Config}
		switch ev.Phase {
		case obs.PhaseBegin:
			open[key] = ev.WallNanos
		case obs.PhaseEnd:
			ps.spans++
			ps.virtual += ev.Virtual
			ps.alloc += ev.AllocBytes
			if begin, ok := open[key]; ok {
				delete(open, key)
				if ev.WallNanos >= begin {
					ps.wallNanos += ev.WallNanos - begin
				}
			} else {
				ps.unpaired++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read trace: %w", err)
	}

	fmt.Fprintf(out, "trace: %d events", total)
	if schema > 0 {
		fmt.Fprintf(out, " (schema %d)", schema)
	}
	if malformed > 0 {
		fmt.Fprintf(out, ", %d malformed lines skipped", malformed)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out)

	fmt.Fprintf(out, "%-10s %8s %8s %12s %12s %14s %7s\n",
		"phase", "events", "spans", "wall (s)", "virtual (s)", "alloc (B)", "errors")
	for _, kind := range order {
		ps := stats[kind]
		if ps.events == 0 {
			continue
		}
		fmt.Fprintf(out, "%-10s %8d %8s %12s %12s %14s %7d\n",
			kind, ps.events,
			dash(ps.spans, fmt.Sprintf("%d", ps.spans)),
			dash64(ps.wallNanos, fmt.Sprintf("%.3f", float64(ps.wallNanos)/1e9)),
			dashF(ps.virtual, fmt.Sprintf("%.4g", ps.virtual)),
			dashU(ps.alloc, fmt.Sprintf("%d", ps.alloc)),
			ps.errors)
	}
	unpaired := len(open)
	for _, ps := range stats {
		unpaired += ps.unpaired
	}
	if unpaired > 0 {
		fmt.Fprintf(out, "\n%d unpaired span events (truncated or interrupted run)\n", unpaired)
	}

	if len(rounds) > 0 {
		ops := make([]string, 0, len(rounds))
		for op := range rounds {
			ops = append(ops, op)
		}
		sort.Slice(ops, func(i, k int) bool {
			if rounds[ops[i]].count != rounds[ops[k]].count {
				return rounds[ops[i]].count > rounds[ops[k]].count
			}
			return ops[i] < ops[k]
		})
		fmt.Fprintln(out)
		fmt.Fprintln(out, "rounds by op:")
		fmt.Fprintf(out, "  %-12s %8s %10s\n", "op", "rounds", "memoized")
		for _, op := range ops {
			os := rounds[op]
			fmt.Fprintf(out, "  %-12s %8d %10s\n", op, os.count, dash(os.memoized, fmt.Sprintf("%d", os.memoized)))
		}
	}
	return nil
}

// opStats is one round op's row: total rounds and how many were skips the
// profiler's decision cache answered (the trace event's memoized flag).
type opStats struct {
	count    int
	memoized int
}

// dash renders "-" for zero-valued cells so the table reads as "not
// applicable" rather than "measured zero".
func dash(n int, s string) string {
	if n == 0 {
		return "-"
	}
	return s
}

func dash64(n int64, s string) string {
	if n == 0 {
		return "-"
	}
	return s
}

func dashF(v float64, s string) string {
	if v == 0 {
		return "-"
	}
	return s
}

func dashU(v uint64, s string) string {
	if v == 0 {
		return "-"
	}
	return s
}
