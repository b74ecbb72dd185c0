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
// which is encoded outside the store's lock into a reused buffer.
//
// In memory the store is an index, as Bitcask's keydir is: a live record
// is its head and where its Data lies — the snapshot or the log, offset
// and length. The bytes stay in the files, and Get, Records and
// compaction read them back. Compaction streams the snapshot as compact
// JSON, copying each live record's bytes from where they lie, so it never
// holds the state in memory either. Snapshots written indented, as
// earlier versions did, still load; their records are held in memory
// until the next compaction rewrites them.
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

// snapshotPrefix is what writeSnapshot writes before the first record.
var snapshotPrefix = fmt.Sprintf(`{"schemaVersion":%d,"records":[`, snapshotSchemaVersion)

const (
	// freeFrames is how many frame buffers the store keeps between
	// commits, and maxFreeFrame the largest it keeps: a profile record is
	// a few hundred KiB, a job record tens.
	freeFrames   = 4
	maxFreeFrame = 1 << 20

	// copyBufLen is the size of compaction's copy buffer.
	copyBufLen = 64 << 10
)

// Store is an open store directory. All methods are safe for concurrent
// use. It holds an index of the live records, not their Data: that is
// read back from the snapshot or the log when asked for.
type Store struct {
	dir          string
	compactBytes int64
	onCompact    func(CompactStats)
	// free holds frame buffers between commits: a commit encodes its
	// frame into one outside mu and gives it back after the write. It is
	// a stack, so serial commits reuse one buffer, grown to the largest
	// record.
	freeMu sync.Mutex
	free   []*bytes.Buffer

	mu  sync.Mutex
	wal *os.File
	// snap reads the current snapshot; nil when there is none.
	snap    *os.File
	walSize int64
	// walRecs counts record versions appended to the log since the last
	// compaction; snapRecs the versions held by the current snapshot. Their
	// sum minus the live count is what a compaction discards.
	walRecs  int
	snapRecs int
	closed   bool
	// err is the first failed read of a record's Data that no caller has
	// been told of: Get reports the record absent, and the next Append,
	// Delete, Compact or Close returns err.
	err error
	// recs is the live state in first-append order; deleted entries are
	// compacted out lazily. idx maps kind+"\x00"+key to a position in recs.
	recs []entry
	idx  map[string]int
	// head and copyBuf are Open's and compaction's scratch, reused under
	// mu.
	head    bytes.Buffer
	copyBuf []byte
}

// entry is one live record in the index: its head, and where its Data
// lies. A zero entry is a dead slot.
type entry struct {
	kind, key string
	at        time.Time
	// n is the length of Data (0 for a tombstone). It lies at off in the
	// snapshot when inSnap, else at off in the log — unless mem holds it:
	// a record read from an older snapshot layout, or from a log frame not
	// in the layout encodeFrame writes, is kept in memory until the next
	// compaction rewrites it.
	n      int
	inSnap bool
	off    int64
	mem    []byte
}

// Open opens (creating if needed) the store at dir, indexing the snapshot
// and the write-ahead log. A torn log tail is truncated; any other
// corruption is an error rather than silent data loss. Open writes
// nothing else.
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
		if s.snap != nil {
			s.snap.Close()
		}
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

// loadSnapshot indexes snapshot.json when present and keeps it open for
// reads. A record that lies where writeSnapshot would have put it, byte
// for byte, is indexed at its offset; once one does not, as in an
// indented snapshot, it and every later record keep their Data in memory.
func (s *Store) loadSnapshot() error {
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: open snapshot: %w", err)
	}
	if err := s.indexSnapshot(f); err != nil {
		f.Close()
		return err
	}
	s.snap = f
	return nil
}

// indexSnapshot reads and decodes the snapshot f and indexes its records.
func (s *Store) indexSnapshot(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	if snap.SchemaVersion != snapshotSchemaVersion {
		return fmt.Errorf("store: snapshot schemaVersion %d, this build reads %d", snap.SchemaVersion, snapshotSchemaVersion)
	}
	streamed := bytes.HasPrefix(data, []byte(snapshotPrefix))
	pos := len(snapshotPrefix)
	for i, rec := range snap.Records {
		e := entry{kind: rec.Kind, key: rec.Key, at: rec.At, n: len(rec.Data)}
		if streamed && i > 0 {
			streamed = pos < len(data) && data[pos] == ','
			pos++
		}
		if streamed {
			off, ok := encodedAt(data[pos:], rec, &s.head)
			if ok {
				e.inSnap, e.off = true, int64(pos+off)
				pos += off + len(rec.Data) + 1
			}
			streamed = ok
		}
		if !streamed {
			e.mem = rec.Data
			// JSON strings hold no raw newline, so one in Data is the
			// indentation of a snapshot written before snapshots were
			// streamed: compact it, so the record in memory is what a
			// commit of it would keep.
			if bytes.IndexByte(rec.Data, '\n') >= 0 {
				var buf bytes.Buffer
				if err := appendData(&buf, rec.Data); err != nil {
					return fmt.Errorf("store: decode snapshot: %w", err)
				}
				e.mem, e.n = buf.Bytes(), buf.Len()
			}
		}
		s.apply(e)
	}
	s.snapRecs = len(snap.Records)
	return nil
}

// encodedAt reports whether b starts with rec as encodeFrame and
// writeSnapshot encode it — its head, `,"data":`, Data and `}` — and
// returns the offset of Data in b. head is scratch.
func encodedAt(b []byte, rec Record, head *bytes.Buffer) (off int, ok bool) {
	head.Reset()
	if writeHead(head, rec) != nil {
		return 0, false
	}
	h := head.Bytes()
	off = len(h) + len(dataField)
	end := off + len(rec.Data)
	return off, len(b) > end && bytes.HasPrefix(b, h) && string(b[len(h):off]) == dataField &&
		bytes.Equal(b[off:end], rec.Data) && b[end] == '}'
}

// replayWAL opens the log, indexes every intact frame, and truncates a
// torn tail (partial frame, CRC mismatch, or undecodable payload — all
// signatures of a crash mid-write). One payload buffer and one Record are
// reused for every frame.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	good := int64(0)
	header := make([]byte, frameHeaderLen)
	var (
		payload []byte
		rec     Record
	)
	for {
		if _, err := io.ReadFull(f, header); err != nil {
			break // clean EOF or partial header: truncate at good
		}
		length := binary.BigEndian.Uint32(header[:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > maxRecordBytes {
			break
		}
		if cap(payload) < int(length) {
			// Grow by at least double: a log's profile records each
			// outgrow the last.
			payload = make([]byte, length, max(int(length), 2*cap(payload)))
		}
		payload = payload[:length]
		if _, err := io.ReadFull(f, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			break
		}
		// A frame without data leaves Data empty: a tombstone.
		rec = Record{Data: rec.Data[:0]}
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		e := entry{kind: rec.Kind, key: rec.Key, at: rec.At, n: len(rec.Data)}
		if e.n > 0 {
			if off, ok := encodedAt(payload, rec, &s.head); ok && off+e.n+1 == len(payload) {
				e.off = good + frameHeaderLen + int64(off)
			} else {
				e.mem = bytes.Clone(rec.Data)
			}
		}
		s.apply(e)
		s.walRecs++
		good += frameHeaderLen + int64(length)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return fmt.Errorf("store: truncate torn wal tail: %w", err)
	}
	s.wal = f
	s.walSize = good
	return nil
}

// apply folds one entry into the index.
func (s *Store) apply(e entry) {
	k := e.kind + "\x00" + e.key
	if e.n == 0 { // tombstone
		if i, ok := s.idx[k]; ok {
			s.recs[i] = entry{} // dead slot, dropped at compaction
			delete(s.idx, k)
		}
		return
	}
	if i, ok := s.idx[k]; ok {
		s.recs[i] = e // replace in place: first-append order is stable
		return
	}
	s.idx[k] = len(s.recs)
	s.recs = append(s.recs, e)
}

// Append durably commits rec: the frame is written and fsynced before
// Append returns. Appending over an existing (Kind, Key) replaces it. The
// store keeps none of rec's bytes in memory.
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

// commit frames, writes, fsyncs, and indexes one record. The frame is
// encoded before the lock is taken, into a buffer from the free list.
func (s *Store) commit(rec Record) error {
	buf := s.takeFrame()
	defer s.putFrame(buf)
	start, end, err := encodeFrame(buf, rec)
	if err != nil {
		return fmt.Errorf("store: encode record: %w", err)
	}
	frame := buf.Bytes()
	if n := len(frame) - frameHeaderLen; n > maxRecordBytes {
		return fmt.Errorf("store: record %s/%s is %d bytes, exceeding the %d-byte limit", rec.Kind, rec.Key, n, maxRecordBytes)
	}

	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	off := s.walSize
	if _, err := s.wal.WriteAt(frame, off); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: append wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: fsync wal: %w", err)
	}
	s.walSize += int64(len(frame))
	s.apply(entry{kind: rec.Kind, key: rec.Key, at: rec.At, n: end - start, off: off + int64(start)})
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

// usableLocked returns why a mutating call cannot proceed: the store is
// closed, or a read failed since the last such call (which it reports
// once).
func (s *Store) usableLocked() error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	err := s.err
	s.err = nil
	return err
}

// takeFrame returns the buffer last put on the free list, or a new one.
func (s *Store) takeFrame() *bytes.Buffer {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(bytes.Buffer)
	}
	buf := s.free[n-1]
	s.free = s.free[:n-1]
	return buf
}

// putFrame puts buf on the free list unless it is too large to keep or
// the list is full.
func (s *Store) putFrame(buf *bytes.Buffer) {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if buf.Cap() <= maxFreeFrame && len(s.free) < freeFrames {
		s.free = append(s.free, buf)
	}
}

// encodeFrame writes rec's log frame to buf, replacing what it held: the
// header, then a payload equal to json.Marshal(rec), with Data compacted
// into it after the head. It returns where Data lies in the frame (an
// empty span for a tombstone).
func encodeFrame(buf *bytes.Buffer, rec Record) (start, end int, err error) {
	buf.Reset()
	buf.Grow(frameHeaderLen + 128 + len(rec.Kind) + len(rec.Key) + len(rec.Data))
	var header [frameHeaderLen]byte
	buf.Write(header[:])
	if err := writeHead(buf, rec); err != nil {
		return 0, 0, err
	}
	if len(rec.Data) > 0 {
		buf.WriteString(dataField)
		start = buf.Len()
		if err := appendData(buf, rec.Data); err != nil {
			return 0, 0, err
		}
		end = buf.Len()
	}
	buf.WriteByte('}')
	frame := buf.Bytes()
	payload := frame[frameHeaderLen:]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return start, end, nil
}

// writeHead appends the encoding of rec without its Data and without the
// closing brace to buf: what json.Marshal(rec) writes before `,"data":`.
func writeHead(buf *bytes.Buffer, rec Record) error {
	n := buf.Len()
	// An Encoder escapes HTML as json.Marshal does, and ends with "}\n".
	if err := json.NewEncoder(buf).Encode(Record{Kind: rec.Kind, Key: rec.Key, At: rec.At}); err != nil {
		buf.Truncate(n)
		return err
	}
	buf.Truncate(buf.Len() - len("}\n"))
	return nil
}

// appendData validates data and writes it to buf the way json.Marshal
// writes a json.RawMessage: compacted, with <, >, &, U+2028 and U+2029
// escaped, which json.Compact alone leaves as they are. Valid data with
// no whitespace byte is compact already: json.Valid and a copy write it
// about a third faster than json.Compact does (a 200 KB profile record
// and a 14 KB job record, 2-vCPU Xeon).
func appendData(buf *bytes.Buffer, data []byte) error {
	start := buf.Len()
	if hasWhitespace(data) || !json.Valid(data) {
		if err := json.Compact(buf, data); err != nil {
			buf.Truncate(start)
			return err
		}
	} else {
		buf.Write(data)
	}
	if htmlUnsafe(buf.Bytes()[start:]) {
		compacted := bytes.Clone(buf.Bytes()[start:])
		buf.Truncate(start)
		json.HTMLEscape(buf, compacted)
	}
	return nil
}

// hasWhitespace reports whether b holds a byte JSON counts as whitespace.
// Only a space can appear inside a string, so a b without any is compact.
func hasWhitespace(b []byte) bool {
	return bytes.IndexByte(b, ' ') >= 0 || bytes.IndexByte(b, '\n') >= 0 ||
		bytes.IndexByte(b, '\t') >= 0 || bytes.IndexByte(b, '\r') >= 0
}

// htmlUnsafe reports whether b may hold a character json.HTMLEscape
// rewrites: <, >, &, or 0xE2, the lead byte of U+2028 and U+2029.
// Four vectorized byte searches beat one byte-at-a-time loop severalfold.
func htmlUnsafe(b []byte) bool {
	return bytes.IndexByte(b, '<') >= 0 || bytes.IndexByte(b, '>') >= 0 ||
		bytes.IndexByte(b, '&') >= 0 || bytes.IndexByte(b, 0xE2) >= 0
}

// readLocked returns e's Data: the bytes it holds in memory, or else the
// bytes read from where they lie into dst, which must be e.n long (nil
// asks for a new slice).
func (s *Store) readLocked(e *entry, dst []byte) ([]byte, error) {
	if e.mem != nil {
		return e.mem, nil
	}
	if dst == nil {
		dst = make([]byte, e.n)
	}
	if err := s.readAtLocked(e, dst, e.off); err != nil {
		return nil, err
	}
	return dst, nil
}

// readAtLocked fills dst from the file e's Data lies in, at off.
func (s *Store) readAtLocked(e *entry, dst []byte, off int64) error {
	f := s.wal
	if e.inSnap {
		f = s.snap
	}
	if _, err := f.ReadAt(dst, off); err != nil {
		return fmt.Errorf("store: read %s/%s: %w", e.kind, e.key, err)
	}
	return nil
}

// Get returns the live record for (kind, key), its Data read back from
// the snapshot or the log into a slice of its own. A record whose read
// fails is reported absent, and the store's next Append, Delete, Compact
// or Close returns the error. After Close every record is absent.
func (s *Store) Get(kind, key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Record{}, false
	}
	i, ok := s.idx[kind+"\x00"+key]
	if !ok {
		return Record{}, false
	}
	e := &s.recs[i]
	data, err := s.readLocked(e, nil)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return Record{}, false
	}
	return Record{Kind: e.kind, Key: e.key, At: e.at, Data: data}, true
}

// Records returns every live record in first-append order, their Data
// read back into one allocation. A record whose read fails is left out,
// and the first such error is returned with the rest.
func (s *Store) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	total := 0
	for i := range s.recs {
		if e := &s.recs[i]; e.kind != "" && e.mem == nil {
			total += e.n
		}
	}
	slab := make([]byte, total)
	out := make([]Record, 0, len(s.idx))
	var first error
	for i := range s.recs {
		e := &s.recs[i]
		if e.kind == "" {
			continue
		}
		var dst []byte
		if e.mem == nil {
			dst, slab = slab[:e.n:e.n], slab[e.n:]
		}
		data, err := s.readLocked(e, dst)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out = append(out, Record{Kind: e.kind, Key: e.key, At: e.at, Data: data})
	}
	return out, first
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
// what the compaction dropped and reclaimed. Each record's Data is
// streamed from where it lies, and the index points into the new
// snapshot once it has replaced the old. A crash at any point leaves
// either the old snapshot + full log or the new snapshot + empty log —
// never a half state — and a compaction that fails before its rename
// leaves the store as it was.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return CompactStats{}, err
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
	// Drop dead slots while building the snapshot, and rebuild the index
	// to match, so long-lived stores do not accumulate holes.
	live := make([]entry, 0, len(s.idx))
	for _, e := range s.recs {
		if e.kind != "" {
			live = append(live, e)
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
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	n, err := s.writeSnapshot(tmp, live)
	if err != nil {
		cleanup()
		return CompactStats{}, fmt.Errorf("store: write snapshot: %w", err)
	}
	stats.SnapshotBytes = n
	if err := tmp.Sync(); err != nil {
		cleanup()
		return CompactStats{}, fmt.Errorf("store: fsync snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, snapshotName)); err != nil {
		cleanup()
		return CompactStats{}, fmt.Errorf("store: publish snapshot: %w", err)
	}

	// The renamed temp file is the snapshot now: read through its
	// descriptor, and index the records where writeSnapshot put them.
	if s.snap != nil {
		s.snap.Close()
	}
	s.snap = tmp
	rebuild := len(live) != len(s.recs)
	s.recs = live
	s.snapRecs = len(live)
	if rebuild {
		s.idx = make(map[string]int, len(live))
		for i, e := range live {
			s.idx[e.kind+"\x00"+e.key] = i
		}
	}
	if err := syncDir(s.dir); err != nil {
		return CompactStats{}, err
	}

	// The log's records are now in the snapshot; truncate it.
	if err := s.wal.Truncate(0); err != nil {
		return CompactStats{}, fmt.Errorf("store: truncate wal: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return CompactStats{}, fmt.Errorf("store: fsync wal: %w", err)
	}
	s.walSize = 0
	s.walRecs = 0
	return stats, nil
}

// writeSnapshot streams live to w as json.Marshal would encode its
// snapshotFile, copying each record's Data from where it lies through the
// store's copy buffer, and returns the bytes written. It points each
// entry of live at its Data in the new snapshot; live's entries are not
// the index's until the caller installs them.
func (s *Store) writeSnapshot(w io.Writer, live []entry) (int64, error) {
	if s.copyBuf == nil {
		s.copyBuf = make([]byte, copyBufLen)
	}
	bw := bufio.NewWriter(w)
	// A bufio.Writer's error sticks: every write after a failed one is a
	// no-op, and Flush reports it.
	bw.WriteString(snapshotPrefix)
	n := int64(len(snapshotPrefix))
	for i := range live {
		e := &live[i]
		s.head.Reset()
		if err := writeHead(&s.head, Record{Kind: e.kind, Key: e.key, At: e.at}); err != nil {
			return 0, err
		}
		if i > 0 {
			bw.WriteByte(',')
			n++
		}
		bw.Write(s.head.Bytes())
		bw.WriteString(dataField)
		n += int64(s.head.Len() + len(dataField))
		if err := s.copyData(bw, e); err != nil {
			return 0, err
		}
		*e = entry{kind: e.kind, key: e.key, at: e.at, n: e.n, inSnap: true, off: n}
		bw.WriteByte('}')
		n += int64(e.n) + 1
	}
	bw.WriteString("]}")
	n += 2
	return n, bw.Flush()
}

// copyData writes e's Data to w, reading it from where it lies a copy
// buffer at a time.
func (s *Store) copyData(w io.Writer, e *entry) error {
	if e.mem != nil {
		_, err := w.Write(e.mem)
		return err
	}
	for done := 0; done < e.n; {
		chunk := s.copyBuf[:min(e.n-done, len(s.copyBuf))]
		if err := s.readAtLocked(e, chunk, e.off+int64(done)); err != nil {
			return err
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		done += len(chunk)
	}
	return nil
}

// Close releases the store. Appended records are already durable; Close
// does not compact. It returns a read error no caller has been told of.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.err
	s.err = nil
	if s.snap != nil {
		err = errors.Join(err, s.snap.Close())
	}
	return errors.Join(err, s.wal.Close())
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
