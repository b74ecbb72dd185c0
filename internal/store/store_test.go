package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// at builds a deterministic record timestamp.
func at(i int) time.Time { return time.Unix(int64(1_700_000_000+i), 0).UTC() }

// rec builds a test record.
func rec(kind, key string, i int, body string) Record {
	return Record{Kind: kind, Key: key, At: at(i), Data: json.RawMessage(body)}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// TestRoundTrip: records survive close + reopen, in first-append order,
// with latest-per-key replacement semantics.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i, r := range []Record{
		rec("job", "job-1", 0, `{"n":1}`),
		rec("profile", "candmc", 1, `{"p":1}`),
		rec("job", "job-2", 2, `{"n":2}`),
		rec("profile", "candmc", 3, `{"p":2}`), // replaces, keeps slot order
	} {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got := s2.Records()
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3: %+v", len(got), got)
	}
	wantOrder := []string{"job-1", "candmc", "job-2"}
	for i, w := range wantOrder {
		if got[i].Key != w {
			t.Errorf("record %d key %q, want %q", i, got[i].Key, w)
		}
	}
	p, ok := s2.Get("profile", "candmc")
	if !ok || string(p.Data) != `{"p":2}` || !p.At.Equal(at(3)) {
		t.Errorf("Get(profile, candmc) = %+v, %v; want the replacing record", p, ok)
	}
	if _, ok := s2.Get("job", "job-9"); ok {
		t.Error("Get of an absent key succeeded")
	}
}

// TestTombstone: Delete removes the entry, survives reopen, and shields
// against the snapshot resurrecting an older record.
func TestTombstone(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(rec("job", "job-1", 0, `{}`)); err != nil {
		t.Fatal(err)
	}
	// Force the record into the snapshot, then tombstone it in the wal.
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job", "job-1", at(1)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", s.Len())
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get("job", "job-1"); ok {
		t.Error("tombstoned record resurfaced after reopen")
	}
	if n := len(s2.Records()); n != 0 {
		t.Errorf("Records() has %d entries, want 0", n)
	}
}

// TestTornTailTruncated: a crash mid-append (partial frame) loses only the
// torn record; everything before it replays and the store accepts new
// appends.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Append(rec("job", fmt.Sprintf("job-%d", i), i, `{"ok":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate the crash: append half a frame's worth of garbage.
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	if n := s2.Len(); n != 3 {
		t.Fatalf("replayed %d records past a torn tail, want 3", n)
	}
	// The tail was physically truncated and the store keeps working.
	if err := s2.Append(rec("job", "job-3", 3, `{"ok":true}`)); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	if n := s3.Len(); n != 4 {
		t.Fatalf("after recovery + append, replayed %d records, want 4", n)
	}
}

// TestCorruptCRCDropped: a bit flip in the last frame fails its CRC; the
// frame is dropped and the log truncated before it.
func TestCorruptCRCDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Append(rec("job", "job-1", 0, `{"keep":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("job", "job-2", 1, `{"corrupt":true}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff // flip a payload byte of the last record
	if err := os.WriteFile(wal, data, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, ok := s2.Get("job", "job-1"); !ok {
		t.Error("intact record lost")
	}
	if _, ok := s2.Get("job", "job-2"); ok {
		t.Error("CRC-corrupt record replayed")
	}
}

// TestCompaction: crossing the size threshold moves state into the
// snapshot, truncates the log, preserves order, and the result reopens
// identically.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every append compacts almost immediately.
	s := mustOpen(t, dir, Options{CompactBytes: 256})
	var want []string
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("job-%d", i)
		want = append(want, key)
		if err := s.Append(rec("job", key, i, `{"payload":"xxxxxxxxxxxxxxxx"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if size := s.LogSize(); size > 256+1024 {
		t.Errorf("log size %d never compacted", size)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got := s2.Records()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Key != w {
			t.Errorf("record %d key %q, want %q (order not preserved across compaction)", i, got[i].Key, w)
		}
	}
}

// TestOpenRemovesCompactionLeftover: a compaction that crashed before its
// rename leaves a snapshot-sized temp file; the next Open deletes it and
// replays the records from the snapshot and log it did not touch.
func TestOpenRemovesCompactionLeftover(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactBytes: -1})
	for i := 0; i < 3; i++ {
		if err := s.Append(rec("job", fmt.Sprintf("job-%d", i), i, `{"n":1}`)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, snapshotName+".tmp-123456")
	if err := os.WriteFile(leftover, snap, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Errorf("compaction leftover survived Open: %v", err)
	}
	got := s2.Records()
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, r := range got {
		if want := rec("job", fmt.Sprintf("job-%d", i), i, `{"n":1}`); r.Key != want.Key || !r.At.Equal(want.At) || string(r.Data) != string(want.Data) {
			t.Errorf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

// TestCompactStats: explicit compaction reports what it reclaimed, and the
// SetOnCompact callback observes automatic compactions triggered by commit.
func TestCompactStats(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactBytes: -1})
	for i := 0; i < 10; i++ {
		if err := s.Append(rec("profile", "candmc", i, fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	wal := s.LogSize()
	if wal == 0 {
		t.Fatal("wal empty before compaction; test premise broken")
	}
	stats, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsKept != 1 {
		t.Errorf("RecordsKept = %d, want 1", stats.RecordsKept)
	}
	if stats.RecordsDropped != 9 {
		t.Errorf("RecordsDropped = %d, want 9", stats.RecordsDropped)
	}
	if stats.BytesReclaimed != wal {
		t.Errorf("BytesReclaimed = %d, want wal size %d", stats.BytesReclaimed, wal)
	}
	if stats.SnapshotBytes <= 0 {
		t.Errorf("SnapshotBytes = %d, want > 0", stats.SnapshotBytes)
	}
	s.Close()

	// Automatic compaction (tiny threshold) fires the callback outside the
	// store lock; the callback may safely call read-only methods.
	var calls []CompactStats
	s2 := mustOpen(t, dir, Options{CompactBytes: 128})
	s2.SetOnCompact(func(cs CompactStats) {
		_ = s2.Len() // must not deadlock
		calls = append(calls, cs)
	})
	for i := 0; i < 10; i++ {
		if err := s2.Append(rec("profile", "candmc", i, `{"payload":"xxxxxxxxxxxxxxxx"}`)); err != nil {
			t.Fatal(err)
		}
	}
	s2.Close()
	if len(calls) == 0 {
		t.Fatal("compaction callback never invoked despite tiny threshold")
	}
	for i, cs := range calls {
		if cs.BytesReclaimed <= 0 {
			t.Errorf("call %d: BytesReclaimed = %d, want > 0", i, cs.BytesReclaimed)
		}
	}
}

// TestFutureSnapshotRejected: an unknown snapshot schema is a loud error,
// not silently dropped state.
func TestFutureSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	snap := []byte(`{"schemaVersion": 99, "records": []}`)
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a future snapshot schema")
	}
}

// TestAppendValidation: empty kinds/keys and nil data are rejected at the
// door.
func TestAppendValidation(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.Append(Record{Kind: "", Key: "k", Data: json.RawMessage(`1`)}); err == nil {
		t.Error("empty kind accepted")
	}
	if err := s.Append(Record{Kind: "k", Key: "", Data: json.RawMessage(`1`)}); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Append(Record{Kind: "k", Key: "k"}); err == nil {
		t.Error("nil data accepted by Append (tombstones go through Delete)")
	}
	// Empty but non-nil: live in memory, yet omitted from the frame, so it
	// would replay as a tombstone.
	if err := s.Append(Record{Kind: "k", Key: "k", Data: json.RawMessage{}}); err == nil {
		t.Error("empty data accepted by Append")
	}
	if err := s.Append(Record{Kind: "k", Key: "k", Data: json.RawMessage(`{"unterminated":`)}); err == nil {
		t.Error("invalid JSON data accepted by Append")
	}
	if n := s.Len(); n != 0 {
		t.Errorf("Len = %d after rejected appends, want 0", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("k", "k", 0, `1`)); err == nil {
		t.Error("append after Close accepted")
	}
}

// TestReplaceDoesNotGrowWAL state: replacing a key many times keeps Len at
// 1 and compaction collapses the history.
func TestReplaceAndCompactCollapse(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactBytes: -1})
	for i := 0; i < 50; i++ {
		if err := s.Append(rec("profile", "candmc", i, fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if size := s.LogSize(); size != 0 {
		t.Errorf("log size %d after compaction, want 0", size)
	}
	got, ok := s.Get("profile", "candmc")
	if !ok || !bytes.Equal(got.Data, []byte(`{"v":49}`)) {
		t.Errorf("post-compaction Get = %+v, %v", got, ok)
	}
	s.Close()
}

// encodingCases are records whose encoding json.Marshal and a bare
// json.Compact would disagree on, or that only a full encoder gets right:
// <, > and & (escaped by json.Marshal, kept by json.Compact) in kind, key
// and data; non-ASCII, U+2028/U+2029 and invalid UTF-8; a non-UTC time
// with nanoseconds; indented and padded Data.
func encodingCases() []Record {
	zone := time.FixedZone("UTC-7:30", -(7*3600 + 30*60))
	return []Record{
		rec("job", "job-1", 0, `{"n":1}`),
		{Kind: "a<b>&c", Key: "k<&>", At: at(1), Data: json.RawMessage(`{"s":"<script>&amp;</script>","<k>":[1,2]}`)},
		{Kind: "prøfil", Key: "ключ-日本", At: time.Date(2026, 3, 4, 5, 6, 7, 891011121, zone),
			Data: json.RawMessage("{\"s\":\"naïve \u2028 \u2029 日本 \\u003c\"}")},
		{Kind: "job", Key: "indented", At: at(2),
			Data: json.RawMessage("{\n  \"a\": [\n    1,\n    2.5e-3\n  ],\n  \"b\": \"x y\",\n  \"c\": {}\n}\n")},
		{Kind: "job", Key: "bad-utf8", At: at(3), Data: json.RawMessage("\"\xff\xfe \xe2\x80 \xe2\x80\xa8\"")},
		{Kind: "job", Key: "scalar", At: at(4), Data: json.RawMessage(" \t42\r\n")},
	}
}

// walPayloads returns the payload of every frame in dir's log, all of
// which must be intact.
func walPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	good, payloads, _ := readFrames(wal)
	if good != int64(len(wal)) {
		t.Fatalf("log has %d bytes past its %d intact ones", int64(len(wal))-good, good)
	}
	return payloads
}

// sameRecords requires got and want to hold the same records in order.
func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Key != w.Key || !g.At.Equal(w.At) || !bytes.Equal(g.Data, w.Data) {
			t.Errorf("record %d = %s/%s at %v %q, want %s/%s at %v %q", i, g.Kind, g.Key, g.At, g.Data, w.Kind, w.Key, w.At, w.Data)
		}
	}
}

// TestFramePayloadIsMarshal: each frame's payload is byte for byte
// json.Marshal of the record appended (the layout every earlier version
// wrote), and the record kept in memory is the one a reopen reads back.
func TestFramePayloadIsMarshal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactBytes: -1})
	recs := encodingCases()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append %s/%s: %v", r.Kind, r.Key, err)
		}
	}
	if err := s.Delete("job", "job-1", at(5)); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, Record{Kind: "job", Key: "job-1", At: at(5)})

	payloads := walPayloads(t, dir)
	if len(payloads) != len(recs) {
		t.Fatalf("%d frames, want %d", len(payloads), len(recs))
	}
	for i, r := range recs {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payloads[i], want) {
			t.Errorf("frame %d (%s/%s):\n got %q\nwant %q", i, r.Kind, r.Key, payloads[i], want)
		}
	}

	before := s.Records()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	sameRecords(t, s2.Records(), before)
}

// TestSnapshotLayouts: a snapshot in the indented layout of earlier
// versions (json.MarshalIndent with a one-space indent) opens to the
// records that were committed, and the next compaction streams the state
// as exactly json.Marshal of the snapshot.
func TestSnapshotLayouts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CompactBytes: -1})
	for _, r := range encodingCases() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Records()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(snapshotFile{SchemaVersion: snapshotSchemaVersion, Records: want}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), indented, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, walName), 0); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{CompactBytes: -1})
	defer s2.Close()
	sameRecords(t, s2.Records(), want)

	stats, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(snapshotFile{SchemaVersion: snapshotSchemaVersion, Records: want})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, compact) {
		t.Errorf("streamed snapshot:\n got %s\nwant %s", got, compact)
	}
	if stats.SnapshotBytes != int64(len(got)) {
		t.Errorf("SnapshotBytes = %d, file has %d", stats.SnapshotBytes, len(got))
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	sameRecords(t, s3.Records(), want)
}
