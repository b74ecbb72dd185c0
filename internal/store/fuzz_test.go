package store

// Fuzzing of log replay: whatever bytes sit in wal.log when a store opens
// — a crash mid-append, a flipped bit, garbage — Open keeps exactly the
// intact frames before the first damaged one, and the store it returns
// goes on committing. Under plain `go test` the seed corpus runs as
// ordinary unit tests.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func FuzzStoreReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, Options{CompactBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range encodingCases() {
		if err := s.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete("job", "indented", at(9)); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-3]) // torn last frame
	flipped := bytes.Clone(wal)
	flipped[len(flipped)/2] ^= 0x40 // a CRC mismatch mid-log
	f.Add(flipped)
	// An intact frame whose payload is not a record.
	f.Add(append(bytes.Clone(wal), frameOf([]byte(`[1,2]`))...))
	f.Add(frameOf([]byte(`{"kind":"k","key":"k","at":"2023-11-14T22:13:20Z","data":null}`)))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o666); err != nil {
			t.Fatal(err)
		}
		good, _, recs := readFrames(wal)
		s, err := Open(dir, Options{CompactBytes: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if size := s.LogSize(); size != good {
			t.Fatalf("log kept %d bytes, the intact prefix is %d", size, good)
		}
		requireLive(t, s, recs)

		after := rec("fuzz", "after", 1, `{"after":true}`)
		if err := s.Append(after); err != nil {
			t.Fatalf("Append after replay: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{CompactBytes: -1})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s2.Close()
		requireLive(t, s2, append(recs, after))
	})
}

// frameOf builds one log frame around payload.
func frameOf(payload []byte) []byte {
	out := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(out[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// readFrames reads wal by the format's definition — a nonzero length
// within the limit, a matching CRC-32C, a payload that decodes as a
// Record — and returns the length of the frames before the first that
// fails, with their payloads and records.
func readFrames(wal []byte) (good int64, payloads [][]byte, recs []Record) {
	for rest := wal; len(rest) >= frameHeaderLen; {
		n := binary.BigEndian.Uint32(rest[:4])
		if n == 0 || n > maxRecordBytes || uint64(n) > uint64(len(rest)-frameHeaderLen) {
			break
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(rest[4:8]) {
			break
		}
		var r Record
		if json.Unmarshal(payload, &r) != nil {
			break
		}
		payloads = append(payloads, payload)
		recs = append(recs, r)
		good += frameHeaderLen + int64(n)
		rest = rest[frameHeaderLen+int(n):]
	}
	return good, payloads, recs
}

// requireLive requires s to hold exactly the latest record per (kind,
// key) of recs, a record without Data deleting its entry.
func requireLive(t *testing.T, s *Store, recs []Record) {
	t.Helper()
	latest := make(map[string]Record, len(recs))
	for _, r := range recs {
		latest[r.Kind+"\x00"+r.Key] = r
	}
	live := 0
	checked := make(map[string]bool, len(latest))
	for _, r := range recs {
		k := r.Kind + "\x00" + r.Key
		if checked[k] {
			continue
		}
		checked[k] = true
		w := latest[k]
		got, ok := s.Get(r.Kind, r.Key)
		if w.Data == nil {
			if ok {
				t.Errorf("Get(%q, %q) found a deleted record", r.Kind, r.Key)
			}
			continue
		}
		live++
		if !ok || !got.At.Equal(w.At) || !bytes.Equal(got.Data, w.Data) {
			t.Errorf("Get(%q, %q) = %v at %v %q, want at %v %q", r.Kind, r.Key, ok, got.At, got.Data, w.At, w.Data)
		}
	}
	if n := s.Len(); n != live {
		t.Errorf("Len = %d, want %d", n, live)
	}
}

// FuzzFrameIsMarshal: whatever Data a record carries, encodeFrame accepts
// it exactly when json.Marshal does, and then writes json.Marshal's
// bytes as the payload, with Data's span holding what Marshal wrote for
// it.
func FuzzFrameIsMarshal(f *testing.F) {
	for _, r := range encodingCases() {
		f.Add([]byte(r.Data))
	}
	f.Add([]byte(`{"unterminated":`))
	f.Add([]byte(`"a b"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // Append rejects it before encoding
		}
		r := Record{Kind: "k", Key: "k", At: at(0), Data: data}
		want, werr := json.Marshal(r)
		var buf bytes.Buffer
		start, end, err := encodeFrame(&buf, r)
		if (err != nil) != (werr != nil) {
			t.Fatalf("encodeFrame error %v, json.Marshal error %v", err, werr)
		}
		if err != nil {
			return
		}
		payload := buf.Bytes()[frameHeaderLen:]
		if !bytes.Equal(payload, want) {
			t.Fatalf("payload %q, json.Marshal %q", payload, want)
		}
		var head bytes.Buffer
		if off, ok := encodedAt(payload, Record{Kind: r.Kind, Key: r.Key, At: r.At, Data: buf.Bytes()[start:end]}, &head); !ok || off+frameHeaderLen != start {
			t.Fatalf("Data's span [%d, %d) is not where the payload holds it", start, end)
		}
	})
}
