package store

// The write path's allocation budget: an Append costs its one frame and
// a small head, never a second encoding of the record. B/op is the number
// checked; it is a function of the code, where ns/op (mostly fsync) is a
// function of the disk. To see it:
//
//	go test -run '^$' -bench '^BenchmarkAppend64K$' -benchmem ./internal/store

import (
	"encoding/json"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// frame64K is the frame length of BenchmarkAppend64K's record: 64 KiB,
// a whole number of the runtime's 8 KiB pages, so the frame's allocation
// is its length.
const frame64K = 64 << 10

// record64K returns a record whose frame is exactly frame64K bytes: a
// JSON string of letters after the head.
func record64K(tb testing.TB) Record {
	r := Record{Kind: "profile", Key: "candmc", At: at(0)}
	head, err := recordHead(r)
	if err != nil {
		tb.Fatal(err)
	}
	letters := frame64K - frameHeaderLen - len(head) - len(dataField) - len(`""}`)
	r.Data = json.RawMessage(`"` + strings.Repeat("x", letters) + `"`)
	return r
}

// BenchmarkAppend64K appends one 64 KiB-frame record per iteration over
// the same key, under the default compaction threshold, so every 64th
// Append also streams a one-record snapshot.
func BenchmarkAppend64K(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := record64K(b)
	b.ReportAllocs()
	b.SetBytes(frame64K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendAllocBudget fails when an Append of a 64 KiB frame allocates
// more than the frame plus 1 KiB: the head's encoding and the compactions
// amortized over it are a few hundred bytes, and a re-marshal of the
// record, or a copy of it, is 64 KiB.
func TestAppendAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs a benchmark for a second; counts under -race are the detector's")
	}
	res := testing.Benchmark(BenchmarkAppend64K)
	if res.N == 0 {
		t.Fatal("BenchmarkAppend64K failed")
	}
	if got, budget := res.AllocedBytesPerOp(), int64(frame64K+1<<10); got > budget {
		t.Errorf("Append of a %d-byte frame: %d B/op, budget %d", frame64K, got, budget)
	}
}
