// Package store is an embedded, crash-safe, append-only record store:
// the durable substrate under the service layer's job history and
// per-workload profile accumulation. It is deliberately tiny and built on
// the standard library alone — length-prefixed JSON frames with a CRC,
// fsync on every commit, and snapshot-based compaction — rather than an
// external KV dependency.
//
// The data model is "latest record per (kind, key)": appending a record
// replaces the previous record with the same kind and key, and appending a
// tombstone (nil Data) deletes it. Replay order is first-append order,
// which survives compaction, so callers that append monotonically (e.g.
// finished jobs) get their history back in the order it was written.
//
// On disk a store directory holds two files:
//
//	snapshot.json — the compacted state, written atomically (temp file +
//	                fsync + rename + directory fsync)
//	wal.log       — records appended since the snapshot, each framed as
//	                [uint32 length][uint32 CRC-32C][JSON payload]
//
// Every record is encoded once. A frame's payload is exactly
// json.Marshal(rec), but only the small {kind, key, at} head goes through
// the encoder: Data is validated and compacted straight into the frame,
// and that compact payload is what the store keeps in memory. Compaction
// streams the snapshot as compact JSON, copying each live record's
// committed bytes through a buffered writer, so it never holds a second
// encoding of the state. Snapshots written indented, as earlier versions
// did, still load.
//
// Opening replays the snapshot and then the log. A torn tail — a partial
// frame or a frame whose CRC does not match, the signature of a crash
// mid-append — is truncated away, and everything before it is kept: a
// crash costs at most the record being written, never the store.
//
// The package reads no clocks and iterates no maps in order-sensitive
// ways: record timestamps are supplied by callers, so the store itself
// stays inside the repo's deterministic layer.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Record is one durable entry: the latest record per (Kind, Key) is the
// live state. At is caller-supplied (the store never reads a clock). A nil
// Data marks a tombstone: appending it deletes the (Kind, Key) entry.
type Record struct {
	Kind string          `json:"kind"`
	Key  string          `json:"key"`
	At   time.Time       `json:"at"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Options configures Open.
type Options struct {
	// CompactBytes triggers automatic compaction when the log grows past
	// it. 0 means 4 MiB; negative disables automatic compaction (explicit
	// Compact still works).
	CompactBytes int64
}

// CompactStats describes one compaction: what it dropped and reclaimed.
type CompactStats struct {
	// RecordsKept is the live-record count written into the snapshot;
	// RecordsDropped counts the record versions the compaction discarded —
	// superseded replacements and tombstoned entries, whether they sat in
	// the log or in the previous snapshot.
	RecordsKept    int `json:"recordsKept"`
	RecordsDropped int `json:"recordsDropped"`
	// BytesReclaimed is the write-ahead log size truncated away;
	// SnapshotBytes the size of the freshly written snapshot.
	BytesReclaimed int64 `json:"bytesReclaimed"`
	SnapshotBytes  int64 `json:"snapshotBytes"`
}

const (
	snapshotName = "snapshot.json"
	walName      = "wal.log"
	// snapshotTempPrefix names a compaction's snapshot before its rename.
	snapshotTempPrefix = snapshotName + ".tmp-"

	// frameHeaderLen is the per-record framing overhead: a uint32 payload
	// length followed by a uint32 CRC-32C of the payload.
	frameHeaderLen = 8

	// maxRecordBytes bounds one record's payload. A corrupt length field
	// must not provoke a multi-gigabyte allocation; real records (a job
	// status + envelope, an encoded profile) are far below this.
	maxRecordBytes = 64 << 20

	defaultCompactBytes = 4 << 20

	snapshotSchemaVersion = 1

	// dataField joins a record's head to its Data in the encoding.
	dataField = `,"data":`
)

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// systems; hardware-accelerated by hash/crc32).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotFile is the JSON layout of snapshot.json.
type snapshotFile struct {
	SchemaVersion int      `json:"schemaVersion"`
	Records       []Record `json:"records"`
}

// Store is an open store directory. All methods are safe for concurrent
// use.
type Store struct {
	dir          string
	compactBytes int64
	onCompact    func(CompactStats)

	mu      sync.Mutex
	wal     *os.File
	walSize int64
	// walRecs counts record versions appended to the log since the last
	// compaction; snapRecs the versions held by the current snapshot. Their
	// sum minus the live count is what a compaction discards.
	walRecs  int
	snapRecs int
	closed   bool
	// recs is the live state in first-append order; deleted entries are
	// compacted out lazily. idx maps kind+"\x00"+key to a position in recs
	// (-1 once deleted).
	recs []Record
	idx  map[string]int
}

// Open opens (creating if needed) the store at dir, replaying the snapshot
// and the write-ahead log. A torn log tail is truncated; any other
// corruption is an error rather than silent data loss.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		compactBytes: opt.CompactBytes,
		idx:          make(map[string]int),
	}
	if s.compactBytes == 0 {
		s.compactBytes = defaultCompactBytes
	}

	if err := removeSnapshotTemps(dir); err != nil {
		return nil, err
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

// removeSnapshotTemps deletes the temp files of compactions that never
// reached their rename: a crash mid-compaction leaves one behind, and no
// later compaction would reuse or remove it.
func removeSnapshotTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), snapshotTempPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("store: remove stale snapshot temp: %w", err)
			}
		}
	}
	return nil
}

// loadSnapshot reads snapshot.json when present.
func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	if snap.SchemaVersion != snapshotSchemaVersion {
		return fmt.Errorf("store: snapshot schemaVersion %d, this build reads %d", snap.SchemaVersion, snapshotSchemaVersion)
	}
	for _, rec := range snap.Records {
		// JSON strings hold no raw newline, so one in Data is the
		// indentation of a snapshot written before snapshots were
		// streamed: compact it, so the record in memory is what a
		// commit of it would keep.
		if bytes.IndexByte(rec.Data, '\n') >= 0 {
			var buf bytes.Buffer
			if err := appendData(&buf, rec.Data); err != nil {
				return fmt.Errorf("store: decode snapshot: %w", err)
			}
			rec.Data = buf.Bytes()
		}
		s.apply(rec)
	}
	s.snapRecs = len(snap.Records)
	return nil
}

// replayWAL opens the log, applies every intact frame, and truncates a
// torn tail (partial frame, CRC mismatch, or undecodable payload — all
// signatures of a crash mid-write).
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	good := int64(0)
	header := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			break // clean EOF or partial header: truncate at good
		}
		length := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordBytes {
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		s.apply(rec)
		s.walRecs++
		good += frameHeaderLen + int64(length)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("store: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: seek wal: %w", err)
	}
	s.wal = f
	s.walSize = good
	return nil
}

// apply folds one record into the in-memory state.
func (s *Store) apply(rec Record) {
	k := rec.Kind + "\x00" + rec.Key
	if rec.Data == nil { // tombstone
		if i, ok := s.idx[k]; ok {
			s.recs[i] = Record{} // dead slot, dropped at compaction
			delete(s.idx, k)
		}
		return
	}
	if i, ok := s.idx[k]; ok {
		s.recs[i] = rec // replace in place: first-append order is stable
		return
	}
	s.idx[k] = len(s.recs)
	s.recs = append(s.recs, rec)
}

// Append durably commits rec: the frame is written and fsynced before
// Append returns. Appending over an existing (Kind, Key) replaces it.
func (s *Store) Append(rec Record) error {
	if rec.Kind == "" || rec.Key == "" {
		return fmt.Errorf("store: append: empty kind or key")
	}
	if len(rec.Data) == 0 {
		// An empty Data would be live in memory but dropped from the
		// frame (omitempty), replaying as a tombstone.
		return fmt.Errorf("store: append: empty data (use Delete for tombstones)")
	}
	return s.commit(rec)
}

// Delete durably appends a tombstone for (kind, key). Deleting an absent
// entry is a no-op that still commits (the tombstone shields against an
// older record resurfacing from the snapshot).
func (s *Store) Delete(kind, key string, at time.Time) error {
	if kind == "" || key == "" {
		return fmt.Errorf("store: delete: empty kind or key")
	}
	return s.commit(Record{Kind: kind, Key: key, At: at})
}

// commit frames, writes, fsyncs, and applies one record.
func (s *Store) commit(rec Record) error {
	frame, data, err := encodeFrame(rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	if n := len(frame) - frameHeaderLen; n > maxRecordBytes {
		return fmt.Errorf("store: record %s/%s is %d bytes, exceeding the %d-byte limit", rec.Kind, rec.Key, n, maxRecordBytes)
	}
	rec.Data = data

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: append wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: fsync wal: %w", err)
	}
	s.walSize += int64(len(frame))
	s.apply(rec)
	s.walRecs++
	var stats CompactStats
	compacted := false
	if s.compactBytes > 0 && s.walSize > s.compactBytes {
		st, err := s.compactLocked()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		stats, compacted = st, true
	}
	cb := s.onCompact
	s.mu.Unlock()
	if compacted && cb != nil {
		cb(stats)
	}
	return nil
}

// encodeFrame encodes rec as one log frame: the header, then a payload
// equal to json.Marshal(rec). Data is compacted into the frame after the
// head; data is that compacted copy, a view into frame (nil for a
// tombstone).
func encodeFrame(rec Record) (frame []byte, data json.RawMessage, err error) {
	head, err := recordHead(rec)
	if err != nil {
		return nil, nil, err
	}
	buf := bytes.NewBuffer(make([]byte, frameHeaderLen, frameHeaderLen+len(head)+len(dataField)+len(rec.Data)+1))
	buf.Write(head)
	start, end := 0, 0
	if len(rec.Data) > 0 {
		buf.WriteString(dataField)
		start = buf.Len()
		if err := appendData(buf, rec.Data); err != nil {
			return nil, nil, err
		}
		end = buf.Len()
	}
	buf.WriteByte('}')
	frame = buf.Bytes()
	if end > start {
		data = frame[start:end:end]
	}
	payload := frame[frameHeaderLen:]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame, data, nil
}

// recordHead returns the encoding of rec without its Data and without
// the closing brace: what json.Marshal(rec) writes before `,"data":`.
func recordHead(rec Record) ([]byte, error) {
	head, err := json.Marshal(Record{Kind: rec.Kind, Key: rec.Key, At: rec.At})
	if err != nil {
		return nil, err
	}
	return head[:len(head)-1], nil
}

// appendData validates data and writes it to buf the way json.Marshal
// writes a json.RawMessage: compacted, with <, >, &, U+2028 and U+2029
// escaped, which json.Compact alone leaves as they are.
func appendData(buf *bytes.Buffer, data []byte) error {
	start := buf.Len()
	if err := json.Compact(buf, data); err != nil {
		return err
	}
	if htmlUnsafe(buf.Bytes()[start:]) {
		compacted := bytes.Clone(buf.Bytes()[start:])
		buf.Truncate(start)
		json.HTMLEscape(buf, compacted)
	}
	return nil
}

// htmlUnsafe reports whether b may hold a character json.HTMLEscape
// rewrites: <, >, &, or 0xE2, the lead byte of U+2028 and U+2029.
// Four vectorized byte searches beat one byte-at-a-time loop severalfold.
func htmlUnsafe(b []byte) bool {
	return bytes.IndexByte(b, '<') >= 0 || bytes.IndexByte(b, '>') >= 0 ||
		bytes.IndexByte(b, '&') >= 0 || bytes.IndexByte(b, 0xE2) >= 0
}

// Get returns the live record for (kind, key).
func (s *Store) Get(kind, key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[kind+"\x00"+key]
	if !ok {
		return Record{}, false
	}
	return s.recs[i], true
}

// Records returns every live record in first-append order.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.idx))
	for _, rec := range s.recs {
		if rec.Kind != "" {
			out = append(out, rec)
		}
	}
	return out
}

// Len reports how many live records the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// LogSize reports the write-ahead log's current size in bytes (what
// compaction will reclaim).
func (s *Store) LogSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetOnCompact installs (or replaces) the compaction-stats callback. fn
// receives the stats of every compaction — explicit or automatic — after
// the store's lock is released, so callers can log and count them. fn must
// not call back into the store's mutating methods from the same goroutine
// chain that triggered it (read-only calls like LogSize are fine).
func (s *Store) SetOnCompact(fn func(CompactStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCompact = fn
}

// Compact writes the live state into a fresh snapshot (atomically: temp
// file, fsync, rename, directory fsync) and truncates the log, returning
// what the compaction dropped and reclaimed. A crash at any point leaves
// either the old snapshot + full log or the new snapshot + empty log —
// never a half state.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CompactStats{}, fmt.Errorf("store: closed")
	}
	stats, err := s.compactLocked()
	cb := s.onCompact
	s.mu.Unlock()
	if err == nil && cb != nil {
		cb(stats)
	}
	return stats, err
}

func (s *Store) compactLocked() (CompactStats, error) {
	// Drop dead slots while building the snapshot, and rebuild the
	// in-memory state to match, so long-lived stores do not accumulate
	// holes.
	live := make([]Record, 0, len(s.idx))
	for _, rec := range s.recs {
		if rec.Kind != "" {
			live = append(live, rec)
		}
	}
	stats := CompactStats{
		RecordsKept:    len(live),
		RecordsDropped: s.snapRecs + s.walRecs - len(live),
		BytesReclaimed: s.walSize,
	}

	tmp, err := os.CreateTemp(s.dir, snapshotTempPrefix+"*")
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	n, err := writeSnapshot(tmp, live)
	if err != nil {
		tmp.Close()
		cleanup()
		return CompactStats{}, fmt.Errorf("store: write snapshot: %w", err)
	}
	stats.SnapshotBytes = n
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return CompactStats{}, fmt.Errorf("store: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return CompactStats{}, fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, snapshotName)); err != nil {
		cleanup()
		return CompactStats{}, fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return CompactStats{}, err
	}

	// The log's records are now in the snapshot; truncate it.
	if err := s.wal.Truncate(0); err != nil {
		return CompactStats{}, fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return CompactStats{}, fmt.Errorf("store: seek wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return CompactStats{}, fmt.Errorf("store: fsync wal: %w", err)
	}
	s.walSize = 0
	s.walRecs = 0
	s.snapRecs = len(live)

	s.recs = live
	s.idx = make(map[string]int, len(live))
	for i, rec := range live {
		s.idx[rec.Kind+"\x00"+rec.Key] = i
	}
	return stats, nil
}

// writeSnapshot streams live to w as json.Marshal would encode its
// snapshotFile, copying each record's committed Data as it is, and
// returns the bytes written.
func writeSnapshot(w io.Writer, live []Record) (int64, error) {
	bw := bufio.NewWriter(w)
	// A bufio.Writer's error sticks: every write after a failed one is a
	// no-op, and Flush reports it.
	n, _ := fmt.Fprintf(bw, `{"schemaVersion":%d,"records":[`, snapshotSchemaVersion)
	for i, rec := range live {
		head, err := recordHead(rec)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			bw.WriteByte(',')
			n++
		}
		bw.Write(head)
		bw.WriteString(dataField)
		bw.Write(rec.Data)
		bw.WriteByte('}')
		n += len(head) + len(dataField) + len(rec.Data) + 1
	}
	bw.WriteString("]}")
	n += 2
	return int64(n), bw.Flush()
}

// Close releases the store. Appended records are already durable; Close
// does not compact.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
