package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock is a deterministic Clock for tests.
func fixedClock() Clock {
	base := time.Unix(1000, 0)
	var mu sync.Mutex
	n := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestRingOrderAndOverflow(t *testing.T) {
	r := NewRing(3, nil)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{Kind: KindRound, Phase: PhasePoint, Config: i})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := i + 3; ev.Config != want {
			t.Errorf("event %d config = %d, want %d (oldest-first order)", i, ev.Config, want)
		}
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("seqs = %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
	if evs[0].WallNanos != 0 {
		t.Error("clockless ring stamped wall time")
	}
}

// TestRingChunkBoundaries checks Events order, Seq and Dropped against the
// last-capacity-events oracle at every chunk boundary a ring can straddle:
// capacities below, at and past one chunk and across several, each filled
// to nothing, one event, the chunk edges, exactly full, and wrapped twice
// over.
func TestRingChunkBoundaries(t *testing.T) {
	for _, capacity := range []int{1, ringChunk - 1, ringChunk, ringChunk + 1, 3*ringChunk + 5} {
		for _, n := range []int{0, 1, ringChunk - 1, ringChunk, ringChunk + 1, capacity, 2*capacity + 3} {
			r := NewRing(capacity, nil)
			for i := 1; i <= n; i++ {
				r.Emit(Event{Kind: KindRound, Phase: PhasePoint, Config: i})
			}
			kept := min(n, capacity)
			evs := r.Events()
			if len(evs) != kept {
				t.Fatalf("capacity %d, %d emitted: %d events, want %d", capacity, n, len(evs), kept)
			}
			for k, ev := range evs {
				if want := n - kept + 1 + k; ev.Config != want || ev.Seq != uint64(want) {
					t.Fatalf("capacity %d, %d emitted: event %d is config %d seq %d, want %d",
						capacity, n, k, ev.Config, ev.Seq, want)
				}
			}
			if got, want := r.Dropped(), uint64(n-kept); got != want {
				t.Errorf("capacity %d, %d emitted: dropped %d, want %d", capacity, n, got, want)
			}
			slots := 0
			for _, c := range r.chunks {
				slots += len(c)
			}
			if want := min(capacity, (n+ringChunk-1)/ringChunk*ringChunk); slots != want {
				t.Errorf("capacity %d, %d emitted: %d slots allocated, want %d", capacity, n, slots, want)
			}
		}
	}
}

// TestRingAllocatesWhatItHolds: a ring sized for a busy job that records ten
// events costs the ring, its chunk index and one chunk.
func TestRingAllocatesWhatItHolds(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		r := NewRing(4096, nil)
		for i := 0; i < 10; i++ {
			r.Emit(Event{Kind: KindRound, Phase: PhasePoint})
		}
	})
	if allocs > 3 {
		t.Errorf("a 4096-slot ring holding 10 events made %v allocations, want at most 3", allocs)
	}
}

func TestRingWallStamps(t *testing.T) {
	r := NewRing(4, fixedClock())
	r.Emit(Event{Kind: KindJob, Phase: PhaseBegin})
	r.Emit(Event{Kind: KindJob, Phase: PhaseEnd})
	evs := r.Events()
	if evs[0].WallNanos == 0 || evs[1].WallNanos <= evs[0].WallNanos {
		t.Errorf("wall stamps not increasing: %d, %d", evs[0].WallNanos, evs[1].WallNanos)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var b strings.Builder
	tr := NewJSONL(&b, fixedClock())
	tr.Emit(Event{Kind: KindSweep, Phase: PhaseBegin, Policy: "online", Eps: 0.125})
	tr.Emit(Event{Kind: KindSweep, Phase: PhaseEnd, Policy: "online", Eps: 0.125, Executed: 7, Skipped: 3})
	if err := tr.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if tr.Count() != 2 {
		t.Errorf("Count = %d, want 2", tr.Count())
	}

	sc := bufio.NewScanner(strings.NewReader(b.String()))
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.TraceSchemaVersion != TraceSchemaVersion {
		t.Fatalf("header = %q (err %v), want traceSchemaVersion %d", sc.Text(), err, TraceSchemaVersion)
	}
	var seqs []uint64
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		seqs = append(seqs, ev.Seq)
		if ev.WallNanos == 0 {
			t.Error("event missing wall stamp")
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Errorf("seqs = %v, want [1 2]", seqs)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live tracers is not nil")
	}
	a, b := NewRing(8, nil), NewRing(8, nil)
	if Tee(a, nil) != Tracer(a) {
		t.Error("Tee of one live tracer is not that tracer")
	}
	tee := Tee(a, b)
	tee.Emit(Event{Kind: KindJob, Phase: PhaseBegin})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("tee delivered %d/%d events, want 1/1", len(a.Events()), len(b.Events()))
	}
}

func TestTracersConcurrent(t *testing.T) {
	r := NewRing(64, fixedClock())
	var discard strings.Builder
	var mu sync.Mutex
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return discard.Write(p)
	})
	j := NewJSONL(safe, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				r.Emit(Event{Kind: KindRound, Phase: PhasePoint})
				j.Emit(Event{Kind: KindRound, Phase: PhasePoint})
			}
		}()
	}
	wg.Wait()
	if got := r.Dropped(); got != 8*200-64 {
		t.Errorf("ring dropped %d, want %d", got, 8*200-64)
	}
	if j.Count() != 8*200 {
		t.Errorf("jsonl wrote %d, want %d", j.Count(), 8*200)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
