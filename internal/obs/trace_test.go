package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
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

// mixedEvent is the i-th event (1-based) of a stream that mixes every shape
// a Ring stores: inline round events with Memoized 0 and 1, and boxed ones —
// round events with Memoized 2 or carrying a Config, and job, sweep, config
// and strategy events.
func mixedEvent(i int) Event {
	v := float64(i) / 8
	switch i % 9 {
	case 0, 1, 2:
		return Event{Kind: KindRound, Phase: PhasePoint, Name: "allreduce", Virtual: v}
	case 3:
		return Event{Kind: KindRound, Phase: PhasePoint, Name: "bcast", Virtual: v, Memoized: 1}
	case 4:
		return Event{Kind: KindRound, Phase: PhasePoint, Name: "send", Virtual: v, Memoized: 2}
	case 5:
		return Event{Kind: KindRound, Phase: PhasePoint, Name: "recv", Virtual: v, Config: i}
	case 6:
		return Event{Kind: KindJob, Phase: PhaseBegin, Name: "capital", Job: "j1"}
	case 7:
		return Event{Kind: KindSweep, Phase: PhaseEnd, Policy: "online", Eps: 0.125, Virtual: v, FullVirtual: 2 * v,
			Executed: int64(i), Skipped: 3, Memoized: 1, AllocBytes: 4096, Error: "boom"}
	}
	return Event{Kind: KindStrategy, Phase: PhasePoint, Round: i, Configs: 4}
}

// TestRingChunkBoundaries checks Events field for field — Seq and WallNanos
// included — and Dropped against the last-capacity-events oracle at every
// chunk boundary a ring can straddle: capacities below, at and past one
// chunk and across several, each filled with the mixed stream to nothing,
// one event, the chunk edges, exactly full, and wrapped twice over.
func TestRingChunkBoundaries(t *testing.T) {
	base := time.Unix(1000, 0)
	for _, capacity := range []int{1, ringChunk - 1, ringChunk, ringChunk + 1, 3*ringChunk + 5} {
		for _, n := range []int{0, 1, ringChunk - 1, ringChunk, ringChunk + 1, capacity, 2*capacity + 3} {
			r := NewRing(capacity, fixedClock())
			var oracle []Event
			for i := 1; i <= n; i++ {
				ev := mixedEvent(i)
				r.Emit(ev)
				ev.Seq = uint64(i)
				ev.WallNanos = base.Add(time.Duration(i) * time.Millisecond).UnixNano()
				oracle = append(oracle, ev)
			}
			kept := min(n, capacity)
			oracle = oracle[n-kept:]
			evs := r.Events()
			if len(evs) != kept {
				t.Fatalf("capacity %d, %d emitted: %d events, want %d", capacity, n, len(evs), kept)
			}
			for k, ev := range evs {
				if ev != oracle[k] {
					t.Fatalf("capacity %d, %d emitted: event %d is\n%+v, want\n%+v", capacity, n, k, ev, oracle[k])
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

// TestRingKeepsEveryField sets each Event field in turn on a round point
// event — the shape a slot stores inline — and checks the ring hands back
// exactly what was emitted, so a field the inline form cannot hold is boxed.
func TestRingKeepsEveryField(t *testing.T) {
	typ := reflect.TypeOf(Event{})
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if name == "Seq" {
			continue // the ring's own
		}
		ev := Event{Kind: KindRound, Phase: PhasePoint}
		switch f := reflect.ValueOf(&ev).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(2)
		case reflect.Uint64:
			f.SetUint(2)
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			t.Fatalf("field %s has kind %s; extend this test", name, f.Kind())
		}
		r := NewRing(4, nil)
		r.Emit(ev)
		ev.Seq = 1
		if got := r.Events(); len(got) != 1 || got[0] != ev {
			t.Errorf("field %s: ring returned %+v, want %+v", name, got, ev)
		}
	}
}

// TestRingAllocatesWhatItHolds: a 4096-slot ring costs itself, its chunk
// index and at most 64 bytes per slot it has written, whether it holds ten
// round events or is full of them.
func TestRingAllocatesWhatItHolds(t *testing.T) {
	const capacity = 4096
	index := uint64((capacity + ringChunk - 1) / ringChunk * int(unsafe.Sizeof([]slot(nil))))
	for _, n := range []int{10, capacity} {
		var before, after runtime.MemStats
		bytes := uint64(math.MaxUint64)
		for range 5 {
			runtime.ReadMemStats(&before)
			r := NewRing(capacity, nil)
			for range n {
				r.Emit(Event{Kind: KindRound, Phase: PhasePoint, Name: "allreduce", Virtual: 1.5, Memoized: 1})
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(r)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		written := uint64((n + ringChunk - 1) / ringChunk * ringChunk)
		if budget := uint64(unsafe.Sizeof(Ring{})) + index + 64*written; bytes > budget {
			t.Errorf("a %d-slot ring holding %d round events allocated %d B, want at most %d", capacity, n, bytes, budget)
		}
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
				r.Emit(mixedEvent(n))
				j.Emit(Event{Kind: KindRound, Phase: PhasePoint})
			}
		}()
	}
	// A reader snapshots the ring while the writers fill it: every
	// snapshot is a run of consecutive sequence numbers.
	done := make(chan struct{})
	read := make(chan error)
	go func() {
		for {
			evs := r.Events()
			for k := 1; k < len(evs); k++ {
				if evs[k].Seq != evs[k-1].Seq+1 {
					read <- fmt.Errorf("snapshot seqs %d then %d", evs[k-1].Seq, evs[k].Seq)
					return
				}
			}
			select {
			case <-done:
				read <- nil
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := <-read; err != nil {
		t.Error(err)
	}
	if got := r.Dropped(); got != 8*200-64 {
		t.Errorf("ring dropped %d, want %d", got, 8*200-64)
	}
	if j.Count() != 8*200 {
		t.Errorf("jsonl wrote %d, want %d", j.Count(), 8*200)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// benchmarkRingEmit emits ev into 4096-slot rings, each filled once and then
// replaced, so B/op is what an event costs the first time through a job's
// ring: its share of the slot chunks, plus a box when it is not inline.
func benchmarkRingEmit(b *testing.B, ev Event) {
	b.ReportAllocs()
	var r *Ring
	for i := 0; b.Loop(); i++ {
		if i%4096 == 0 {
			r = NewRing(4096, WallClock())
		}
		r.Emit(ev)
	}
}

// BenchmarkRingEmitRound is the inline path: a round point event, nearly all
// of what a traced run emits.
func BenchmarkRingEmitRound(b *testing.B) {
	benchmarkRingEmit(b, Event{Kind: KindRound, Phase: PhasePoint, Name: "allreduce", Virtual: 1.5, Memoized: 1})
}

// BenchmarkRingEmitConfig is the boxed path: any event but a plain round.
func BenchmarkRingEmitConfig(b *testing.B) {
	benchmarkRingEmit(b, Event{Kind: KindConfig, Phase: PhasePoint, Policy: "online", Eps: 0.125, Config: 3})
}
