// Package wal implements the append-only write-ahead log under the
// scheduler's durability subsystem. It turns the point-in-time
// Checkpoint documents (fluxion + sched) into the *snapshot* half of a
// snapshot-plus-log scheme: every state-mutating scheduler operation is
// framed as one length-prefixed, CRC32C-protected record and appended to
// a segmented log, so a crash loses at most the un-fsynced group-commit
// window instead of everything since the last checkpoint.
//
// Layout of one frame (little-endian):
//
//	u32  payload length
//	u32  CRC32C over type ‖ flags ‖ payload (Castagnoli)
//	u8   record type (opaque to this package)
//	u8   flags (bit 0: commit — ends an atomic command unit)
//	...  payload
//
// Segments are files named %016x.wal by the LSN of their first record,
// with a 16-byte header (magic + first LSN). Records carry implicit
// LSNs: the segment's first LSN plus the record's index. Segments only
// rotate immediately after a commit frame, so an uncommitted tail is
// always confined to the final segment.
//
// Group commit: Append only copies the frame into an in-memory buffer;
// a background flusher writes and fsyncs the buffer every SyncInterval
// (or when DefaultFlushBytes accumulate), so the hot scheduling loop
// never blocks on a per-record fsync. The durability window is therefore
// the sync interval; recovery rolls back to the last complete command
// unit on disk regardless of where the crash landed.
//
// Recovery (Open) loads the newest valid snapshot, scans the segments,
// truncates at the first torn or CRC-failing frame, discards any
// trailing records past the last commit flag, and exposes the rest via
// Replay. Corruption truncates; it never fails the open. Only a missing
// log prefix (records between the snapshot and the oldest surviving
// segment) is unrecoverable and surfaces as a wrapped ErrWAL.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrWAL is wrapped by every log failure this package reports: decode
// errors on corrupt input, unrecoverable gaps, and storage-layer write or
// fsync failures (which make the log sticky-failed so callers can degrade
// to a clearly reported non-durable mode).
var ErrWAL = errors.New("wal: log failure")

const (
	segMagic        = "FXWAL001" // 8 bytes
	segHeaderSize   = 16         // magic + u64 first LSN
	frameHeaderSize = 10         // u32 len + u32 crc + type + flags

	flagCommit = 0x01
)

// Tunable defaults; zero values in Options select these. The buffer is
// always flushed early once DefaultFlushBytes accumulate.
const (
	DefaultSyncInterval  = 10 * time.Millisecond
	DefaultFlushBytes    = 256 << 10
	DefaultSegmentBytes  = 8 << 20
	DefaultMaxRecord     = 16 << 20
	DefaultKeepSnapshots = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSyncer is the storage surface the log writes through; *os.File
// satisfies it. Tests inject failing implementations (see FaultPlan).
type WriteSyncer interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Options tunes a Log. Zero values select the defaults above.
type Options struct {
	// SyncInterval is the group-commit window: buffered frames are
	// written and fsynced at this period. Negative syncs on every commit
	// frame instead (no background flusher — deterministic, for tests).
	SyncInterval time.Duration
	// SegmentBytes rotates to a new segment after a commit frame once
	// the current segment exceeds this size.
	SegmentBytes int64
	// MaxRecord bounds decoded payload sizes; larger length prefixes are
	// treated as corruption.
	MaxRecord int
	// KeepSnapshots is how many snapshots to retain; segments whose
	// records are all covered by the oldest retained snapshot are
	// deleted when a new snapshot is saved. Minimum (and default) 2, so
	// a torn newest snapshot can always fall back to a replayable older
	// one. Set large to disable compaction.
	KeepSnapshots int
	// KeepAll disables compaction entirely: every segment and snapshot
	// is retained. Archival mode, used by crash drills that need to
	// truncate the log at every historical record boundary.
	KeepAll bool
	// NewSyncer creates the storage for a new segment or snapshot file;
	// the default creates a plain file. Fault-injection hooks go here.
	NewSyncer func(path string) (WriteSyncer, error)
}

func (o *Options) fill() {
	if o.SyncInterval == 0 {
		o.SyncInterval = DefaultSyncInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxRecord <= 0 {
		o.MaxRecord = DefaultMaxRecord
	}
	if o.KeepSnapshots < 2 {
		o.KeepSnapshots = DefaultKeepSnapshots
	}
	if o.NewSyncer == nil {
		o.NewSyncer = func(path string) (WriteSyncer, error) { return os.Create(path) }
	}
}

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	// SegmentsScanned counts segment files examined.
	SegmentsScanned int
	// RecordsReplayed counts records available to Replay (after the
	// snapshot, up to the last complete command unit).
	RecordsReplayed int
	// TruncatedBytes counts bytes dropped: torn tails, frames past a
	// CRC failure, uncommitted trailing records, and corrupt snapshots.
	TruncatedBytes int64
	// SnapshotAge is the wall-clock age of the loaded snapshot file
	// (zero when starting without one).
	SnapshotAge time.Duration
	// SnapshotLSN is the LSN the loaded snapshot covers through (0 =
	// no snapshot).
	SnapshotLSN uint64
	// LastLSN is the last committed record on disk (0 = empty log).
	LastLSN uint64
}

// Record is one recovered frame.
type Record struct {
	LSN     uint64
	Type    byte
	Commit  bool
	Payload []byte
}

type segInfo struct {
	path  string
	first uint64
}

type snapInfo struct {
	path string
	lsn  uint64
}

// Log is an open write-ahead log directory.
type Log struct {
	dir string
	o   Options

	mu        sync.Mutex
	cur       WriteSyncer
	curPath   string
	curFirst  uint64
	curSize   int64 // header + written + buffered bytes
	buf       []byte
	dirtySync bool // bytes written since the last successful fsync
	nextLSN   uint64
	err       error // sticky; wrapped ErrWAL

	segs  []segInfo  // closed segments, ascending first LSN
	snaps []snapInfo // valid snapshots, newest first

	snapshot []byte
	snapLSN  uint64
	replay   []Record
	stats    RecoveryStats

	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// Open recovers the log in dir (creating it if absent) and prepares it
// for appending. Corrupt tails are truncated, uncommitted trailing
// records rolled back, and the newest valid snapshot loaded; inspect the
// results with Snapshot, Replay, and Stats. Appends go to a fresh
// segment starting at the recovered LSN.
func Open(dir string, o Options) (*Log, error) {
	o.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWAL, err)
	}
	l := &Log{dir: dir, o: o, nextLSN: 1}
	if err := l.loadSnapshots(); err != nil {
		return nil, err
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.stats.RecordsReplayed = len(l.replay)
	l.stats.SnapshotLSN = l.snapLSN
	l.stats.LastLSN = l.nextLSN - 1
	if err := l.rotateLocked(); err != nil {
		return nil, l.err
	}
	l.stop = make(chan struct{})
	if o.SyncInterval > 0 {
		l.wg.Add(1)
		go l.flushLoop()
	}
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Err returns the sticky failure, if any. Once a write or fsync fails
// the log stops accepting appends and every call reports this error;
// callers should degrade to non-durable operation and say so.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns what recovery found.
func (l *Log) Stats() RecoveryStats { return l.stats }

// Snapshot returns the newest valid snapshot payload and the LSN it
// covers through; ok is false when the log has no usable snapshot.
func (l *Log) Snapshot() (lsn uint64, payload []byte, ok bool) {
	if l.snapLSN == 0 {
		return 0, nil, false
	}
	return l.snapLSN, l.snapshot, true
}

// SnapshotLSN returns the LSN covered by the newest snapshot (0 = none).
func (l *Log) SnapshotLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapLSN
}

// Replay calls fn for every recovered record after the snapshot, in LSN
// order, stopping at fn's first error.
func (l *Log) Replay(fn func(r Record) error) error {
	for _, r := range l.replay {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Append frames one record into the group-commit buffer and returns its
// LSN. commit marks the record as the end of an atomic command unit:
// recovery discards trailing records past the last commit, so crashes
// always recover to a command boundary. Append never fsyncs directly
// (the flusher does, or a FlushBytes overflow); it is therefore cheap
// and allocation-free in steady state.
func (l *Log) Append(typ byte, commit bool, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if len(payload) > l.o.MaxRecord {
		return 0, fmt.Errorf("%w: record of %d bytes exceeds max %d", ErrWAL, len(payload), l.o.MaxRecord)
	}
	var flags byte
	if commit {
		flags = flagCommit
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[8] = typ
	hdr[9] = flags
	start := len(l.buf)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	// type ‖ flags ‖ payload are contiguous in the buffer; CRC them in
	// place so the hot path never materializes a temporary slice.
	crc := crc32.Update(0, castagnoli, l.buf[start+8:])
	binary.LittleEndian.PutUint32(l.buf[start+4:start+8], crc)
	l.curSize += int64(frameHeaderSize + len(payload))
	lsn := l.nextLSN
	l.nextLSN++

	switch {
	case len(l.buf) >= DefaultFlushBytes,
		commit && l.o.SyncInterval < 0:
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
	}
	if commit && l.curSize >= l.o.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// Sync flushes and fsyncs all buffered frames now.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// Close flushes, fsyncs, and closes the log. It is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		l.wg.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ferr := l.flushLocked()
	if l.cur != nil {
		if cerr := l.cur.Close(); cerr != nil && ferr == nil {
			ferr = fmt.Errorf("%w: %v", ErrWAL, cerr)
		}
		l.cur = nil
	}
	return ferr
}

func (l *Log) flushLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.o.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			_ = l.flushLocked()
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// flushLocked writes the buffer to the active segment and fsyncs.
func (l *Log) flushLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.cur == nil {
		return nil
	}
	if len(l.buf) > 0 {
		n, err := l.cur.Write(l.buf)
		if err == nil && n < len(l.buf) {
			err = fmt.Errorf("short write (%d of %d bytes)", n, len(l.buf))
		}
		if err != nil {
			return l.fail(err)
		}
		l.buf = l.buf[:0]
		l.dirtySync = true
	}
	if l.dirtySync {
		if err := l.cur.Sync(); err != nil {
			return l.fail(err)
		}
		l.dirtySync = false
	}
	return nil
}

// fail records the sticky failure.
func (l *Log) fail(err error) error {
	l.err = fmt.Errorf("%w: %w", ErrWAL, err)
	return l.err
}

// rotateLocked closes the active segment (flushing first) and starts a
// new one whose first LSN is the next to be appended. A no-op when the
// active segment holds no records yet: closing it would recreate the
// same filename (segments are named by first LSN) and double-track it.
func (l *Log) rotateLocked() error {
	if l.cur != nil && l.curFirst == l.nextLSN {
		return nil
	}
	if l.cur != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return l.fail(err)
		}
		l.segs = append(l.segs, segInfo{path: l.curPath, first: l.curFirst})
		l.cur = nil
	}
	path := filepath.Join(l.dir, segName(l.nextLSN))
	w, err := l.o.NewSyncer(path)
	if err != nil {
		return l.fail(err)
	}
	l.cur = w
	l.curPath = path
	l.curFirst = l.nextLSN
	l.curSize = segHeaderSize
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], l.nextLSN)
	l.buf = append(l.buf, hdr[:]...)
	l.dirtySync = true
	return nil
}

func segName(first uint64) string { return fmt.Sprintf("%016x.wal", first) }

// parseFrame decodes the frame at data[off:]. A short, oversized, or
// CRC-failing frame returns ok=false: the caller truncates there.
func parseFrame(data []byte, off, maxRecord int) (typ byte, commit bool, payload []byte, next int, ok bool) {
	if len(data)-off < frameHeaderSize {
		return 0, false, nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if n > maxRecord || off+frameHeaderSize+n > len(data) {
		return 0, false, nil, 0, false
	}
	want := binary.LittleEndian.Uint32(data[off+4 : off+8])
	typ = data[off+8]
	flags := data[off+9]
	payload = data[off+frameHeaderSize : off+frameHeaderSize+n]
	if crc32.Checksum(data[off+8:off+frameHeaderSize+n], castagnoli) != want {
		return 0, false, nil, 0, false
	}
	return typ, flags&flagCommit != 0, payload, off + frameHeaderSize + n, true
}

// framePos locates one recovered record on disk, for uncommitted-tail
// truncation.
type framePos struct {
	path       string
	start, end int64
}

// scan reads every segment, truncating at the first corruption and
// rolling back trailing records past the last commit flag.
func (l *Log) scan() error {
	names, err := filepath.Glob(filepath.Join(l.dir, "*.wal"))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWAL, err)
	}
	type segFile struct {
		path  string
		first uint64
	}
	var files []segFile
	for _, p := range names {
		var first uint64
		base := filepath.Base(p)
		if _, err := fmt.Sscanf(base, "%016x.wal", &first); err != nil || segName(first) != base {
			continue // not one of ours
		}
		files = append(files, segFile{path: p, first: first})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].first < files[j].first })

	var (
		recs      []Record
		pos       []framePos
		lastGood  int // record count through the last commit flag
		expected  uint64
		corrupted bool
		scanned   []segInfo
		perSeg    = make(map[string]int) // surviving records per segment
	)
	dropFrom := len(files)
	for i, sf := range files {
		if corrupted {
			dropFrom = i
			break
		}
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrWAL, err)
		}
		l.stats.SegmentsScanned++
		if len(data) < segHeaderSize || string(data[:8]) != segMagic ||
			binary.LittleEndian.Uint64(data[8:16]) != sf.first {
			// An unreadable header leaves no usable records: drop the
			// file and everything after it.
			l.stats.TruncatedBytes += int64(len(data))
			_ = os.Remove(sf.path)
			dropFrom = i + 1
			break
		}
		if expected != 0 && sf.first != expected {
			// A hole in the LSN sequence: nothing at or past it can be
			// replayed consistently.
			dropFrom = i
			break
		}
		off := segHeaderSize
		lsn := sf.first
		for off < len(data) {
			typ, commit, payload, next, ok := parseFrame(data, off, l.o.MaxRecord)
			if !ok {
				l.stats.TruncatedBytes += int64(len(data) - off)
				if err := os.Truncate(sf.path, int64(off)); err != nil {
					return fmt.Errorf("%w: %v", ErrWAL, err)
				}
				corrupted = true
				dropFrom = i + 1
				break
			}
			recs = append(recs, Record{LSN: lsn, Type: typ, Commit: commit,
				Payload: append([]byte(nil), payload...)})
			pos = append(pos, framePos{path: sf.path, start: int64(off), end: int64(next)})
			perSeg[sf.path]++
			if commit {
				lastGood = len(recs)
			}
			off = next
			lsn++
		}
		expected = lsn
		scanned = append(scanned, segInfo{path: sf.path, first: sf.first})
	}
	for _, sf := range files[dropFrom:] {
		if fi, err := os.Stat(sf.path); err == nil {
			l.stats.TruncatedBytes += fi.Size()
		}
		_ = os.Remove(sf.path)
	}

	// Roll back the uncommitted tail: truncate each touched file to the
	// first dropped record's offset.
	if lastGood < len(recs) {
		cut := make(map[string]int64)
		for _, p := range pos[lastGood:] {
			if c, ok := cut[p.path]; !ok || p.start < c {
				cut[p.path] = p.start
			}
			l.stats.TruncatedBytes += p.end - p.start
			perSeg[p.path]--
		}
		for path, at := range cut {
			if err := os.Truncate(path, at); err != nil {
				return fmt.Errorf("%w: %v", ErrWAL, err)
			}
		}
		recs = recs[:lastGood]
	}

	// A segment left with no records (header-only) carries no state and,
	// if trailing, its name could collide with the fresh active segment
	// the upcoming rotation creates — delete instead of tracking it.
	for _, s := range scanned {
		if perSeg[s.path] == 0 {
			_ = os.Remove(s.path)
			continue
		}
		l.segs = append(l.segs, s)
	}

	if n := len(recs); n > 0 {
		l.nextLSN = recs[n-1].LSN + 1
	}
	if l.snapLSN >= l.nextLSN {
		l.nextLSN = l.snapLSN + 1
	}
	// Keep only records the snapshot does not already cover, and verify
	// the log reaches back far enough to replay from it.
	i := 0
	for i < len(recs) && recs[i].LSN <= l.snapLSN {
		i++
	}
	l.replay = recs[i:]
	if len(l.replay) > 0 && l.replay[0].LSN != l.snapLSN+1 {
		return fmt.Errorf("%w: log starts at LSN %d but snapshot covers through %d",
			ErrWAL, l.replay[0].LSN, l.snapLSN)
	}
	// A segment whose last record precedes the oldest retained snapshot
	// may survive a crashed compaction; it replays as a no-op, so leave
	// it for the next SaveSnapshot to retire.
	return nil
}

// String renders the stats compactly for status lines.
func (st RecoveryStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d segments, %d records to replay", st.SegmentsScanned, st.RecordsReplayed)
	if st.SnapshotLSN > 0 {
		fmt.Fprintf(&b, ", snapshot@%d (%s old)", st.SnapshotLSN, st.SnapshotAge.Round(time.Millisecond))
	} else {
		b.WriteString(", no snapshot")
	}
	if st.TruncatedBytes > 0 {
		fmt.Fprintf(&b, ", %dB truncated", st.TruncatedBytes)
	}
	return b.String()
}
