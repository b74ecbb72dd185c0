package main

// Harness spans: recorded in memory around the harness's own calls into
// each layer, written out when the traced run ends. Nothing inside the
// program under test is instrumented.
//
// A track is one sequential timeline — the harness goroutine is track 0,
// each service client and each study of a shared pool gets its own — so
// spans on one track nest and never overlap. A span's self time is its
// duration minus the part its direct children on the same track cover;
// children on another track are concurrent actors the parent waits for,
// and that wait is the parent's own time.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

type spanData struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Track    int    `json:"track"`
	Name     string `json:"name"`
	Attr     string `json:"attr,omitempty"` // study or job kind
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
	SelfNs   int64  `json:"selfNs"`
}

func (s spanData) durNs() int64 { return s.EndNs - s.StartNs }

// spanRec collects spans. A nil *spanRec records nothing, so workloads call
// it unconditionally.
type spanRec struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	rep      int
	spans    []spanData
}

func newSpanRec(workload string) *spanRec {
	return &spanRec{epoch: time.Now(), workload: workload}
}

func (r *spanRec) setRep(i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rep = i
	r.mu.Unlock()
}

// spanRef names an open (or added) span; nil when recording is off.
type spanRef struct {
	r  *spanRec
	id int
}

// add records a span with known start and end.
func (r *spanRec) add(parent *spanRef, track int, name, attr string, start, end time.Time) *spanRef {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sd := spanData{
		ID: len(r.spans) + 1, Track: track, Name: name, Attr: attr,
		Workload: r.workload, Rep: r.rep,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	}
	if parent != nil {
		sd.Parent = parent.id
	}
	r.spans = append(r.spans, sd)
	return &spanRef{r: r, id: sd.ID}
}

// begin opens a span now; end closes it.
func (r *spanRec) begin(parent *spanRef, track int, name, attr string) *spanRef {
	now := time.Now()
	return r.add(parent, track, name, attr, now, now)
}

func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.r.mu.Lock()
	s.r.spans[s.id-1].EndNs = now.Sub(s.r.epoch).Nanoseconds()
	s.r.mu.Unlock()
}

// finish computes self times and returns the spans.
func (r *spanRec) finish() []spanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	fillSelfTimes(r.spans)
	return r.spans
}

// fillSelfTimes sets SelfNs to the span's duration minus the part of it
// that its direct same-track children cover.
func fillSelfTimes(spans []spanData) {
	children := make(map[int][]int, len(spans)) // parent id -> child indices
	for i, s := range spans {
		if s.Parent != 0 && spans[s.Parent-1].Track == s.Track {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, upTo := int64(0), p.StartNs
		for _, k := range kids {
			start, end := max(spans[k].StartNs, upTo), min(spans[k].EndNs, p.EndNs)
			if end > start {
				covered += end - start
				upTo = end
			}
		}
		p.SelfNs = p.durNs() - covered
	}
}

// trackBalance checks the nesting of every (rep, track): when a track's
// spans nest without overlap, their self times sum to the durations of the
// track's top-level spans (for track 0, the rep's wall); children that
// overlap each other or outlast their parent break the sum. It returns the
// worst relative gap.
func trackBalance(spans []spanData) float64 {
	type key struct{ rep, track int }
	self := map[key]int64{}
	top := map[key]int64{}
	for _, s := range spans {
		k := key{s.Rep, s.Track}
		self[k] += s.SelfNs
		if s.Parent == 0 || spans[s.Parent-1].Track != s.Track {
			top[k] += s.durNs()
		}
	}
	worst := 0.0
	for k, t := range top {
		if t == 0 {
			continue
		}
		worst = max(worst, math.Abs(float64(self[k]-t))/float64(t))
	}
	return worst
}

// spanDurations returns the durations, in milliseconds, of every span with
// the given name (and attr, when attr is not empty).
func spanDurations(spans []spanData, name, attr string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, float64(s.durNs())/1e6)
		}
	}
	return out
}

func writeSpans(path string, spans []spanData) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
