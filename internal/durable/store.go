// Package durable is the durability layer over internal/wal: it turns
// the scheduler's effect journal (internal/sched's Rec stream) into an
// append-only write-ahead log and the paired fluxion/sched checkpoints
// into its snapshots, giving the simulator crash-consistent recovery.
//
// The scheme is snapshot-plus-log. Every state-mutating scheduler
// operation emits journal records; the store frames each record into the
// WAL before the next command begins, marking command boundaries with
// committed RecCommit frames. Every SnapshotEvery commands (or whenever
// an out-of-command store mutation is observed on the delta stream, which
// replay cannot reproduce) the store writes a snapshot — a JSON document
// bundling the fluxion checkpoint (graph + allocations), the scheduler
// checkpoint (queue, clock, events), and the canonical jobspec of every
// non-terminal job — and the WAL retires segments the snapshot covers.
//
// Recovery opens the newest valid snapshot, rebuilds both layers from it
// (or builds them fresh when the log starts at genesis), replays the
// surviving record suffix through sched.Apply, and converges to
// byte-identical Checkpoint() output versus an uncrashed run: the
// crash-drill test enforces this at every record boundary.
//
// Storage faults degrade, never corrupt: the first failed write, fsync,
// or snapshot poisons the log, the store reports it once, detaches the
// journal sink, and the scheduler continues non-durably.
package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"fluxion"
	"fluxion/internal/jobspec"
	"fluxion/internal/sched"
	"fluxion/internal/wal"
)

// DefaultSnapshotEvery is the default command-unit count between
// automatic snapshots.
const DefaultSnapshotEvery = 4096

// Options parameterizes Open.
type Options struct {
	// Dir is the durability directory (created if missing).
	Dir string
	// SyncInterval is the WAL group-commit fsync cadence: 0 selects the
	// WAL default (10ms), negative syncs on every commit frame.
	SyncInterval time.Duration
	// SnapshotEvery is how many command units elapse between automatic
	// snapshots (0 = DefaultSnapshotEvery).
	SnapshotEvery int
	// SegmentBytes / KeepSnapshots / KeepAll pass through to wal.Options
	// (KeepAll retains every segment and snapshot — archival/drill mode).
	SegmentBytes  int64
	KeepSnapshots int
	KeepAll       bool
	// Faults injects storage failures for testing (nil = real files).
	Faults *wal.FaultPlan
	// Warn receives the one-line degraded-mode report (default stderr).
	Warn io.Writer
}

// Store couples a WAL with a live fluxion + scheduler pair.
type Store struct {
	log  *wal.Log
	f    *fluxion.Fluxion
	s    *sched.Scheduler
	warn io.Writer

	buf       []byte
	snapEvery int
	sinceSnap int
	extDirty  bool
	degraded  bool
	err       error
	untap     func()
	recovered bool
}

// Open opens (or creates) the durability directory and scans it for
// prior state. Check Recovered to decide between Restore and a fresh
// build, then wire the live pair with Attach.
func Open(o Options) (*Store, error) {
	wo := wal.Options{
		SyncInterval:  o.SyncInterval,
		SegmentBytes:  o.SegmentBytes,
		KeepSnapshots: o.KeepSnapshots,
		KeepAll:       o.KeepAll,
	}
	if o.Faults != nil {
		wo.NewSyncer = o.Faults.NewSyncer
	}
	log, err := wal.Open(o.Dir, wo)
	if err != nil {
		return nil, err
	}
	st := &Store{
		log:       log,
		warn:      o.Warn,
		snapEvery: o.SnapshotEvery,
	}
	if st.snapEvery <= 0 {
		st.snapEvery = DefaultSnapshotEvery
	}
	if st.warn == nil {
		st.warn = os.Stderr
	}
	_, _, hasSnap := log.Snapshot()
	tail := 0
	_ = log.Replay(func(wal.Record) error { tail++; return nil })
	st.recovered = hasSnap || tail > 0
	return st, nil
}

// Recovered reports whether Open found prior durable state to restore.
func (st *Store) Recovered() bool { return st.recovered }

// Stats returns what recovery scanned, replayed, and truncated.
func (st *Store) Stats() wal.RecoveryStats { return st.log.Stats() }

// Degraded reports whether a storage fault disabled durability.
func (st *Store) Degraded() bool { return st.degraded }

// Err returns the sticky storage error (wrapping wal.ErrWAL), if any.
func (st *Store) Err() error {
	if st.err != nil {
		return st.err
	}
	return st.log.Err()
}

// Log exposes the underlying WAL (tests, inspection).
func (st *Store) Log() *wal.Log { return st.log }

// snapshotDoc is the snapshot payload: both checkpoint layers, the
// scheduler's work counters, and the canonical jobspec (and integrity
// hash) of every non-terminal job, which sched.Resume needs to recompile
// the queue.
type snapshotDoc struct {
	Version  int                  `json:"version"`
	Resource json.RawMessage      `json:"resource"`
	Sched    json.RawMessage      `json:"sched"`
	Stats    sched.Stats          `json:"stats"`
	Specs    map[int64]snapedSpec `json:"specs,omitempty"`
}

type snapedSpec struct {
	Hash uint64 `json:"hash"`
	YAML string `json:"yaml"`
}

// Restore rebuilds the fluxion + scheduler pair from the recovered
// state: the newest snapshot when one exists, otherwise a fresh build
// (the log starts at genesis), then the replay of every surviving journal
// record. fresh must construct the pair exactly as the original run did;
// fopts configure the snapshot restore path (match policy, prune spec,
// horizon) and sopts the scheduler resume (incremental engine, depth).
func (st *Store) Restore(
	fresh func() (*fluxion.Fluxion, *sched.Scheduler, error),
	fopts []fluxion.Option,
	sopts []sched.SchedOption,
) (*fluxion.Fluxion, *sched.Scheduler, error) {
	var f *fluxion.Fluxion
	var s *sched.Scheduler
	if _, payload, ok := st.log.Snapshot(); ok {
		var doc snapshotDoc
		if err := json.Unmarshal(payload, &doc); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot: %v", wal.ErrWAL, err)
		}
		if doc.Version != 1 {
			return nil, nil, fmt.Errorf("%w: unsupported snapshot version %d", wal.ErrWAL, doc.Version)
		}
		var err error
		if f, err = fluxion.Restore(doc.Resource, fopts...); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot resource state: %v", wal.ErrWAL, err)
		}
		specs := make(map[int64]*jobspec.Jobspec, len(doc.Specs))
		for id, ss := range doc.Specs {
			if specHash([]byte(ss.YAML)) != ss.Hash {
				return nil, nil, fmt.Errorf("%w: jobspec hash mismatch for job %d in snapshot", wal.ErrWAL, id)
			}
			spec, err := jobspec.ParseYAML([]byte(ss.YAML))
			if err != nil {
				return nil, nil, fmt.Errorf("%w: jobspec of job %d in snapshot: %v", wal.ErrWAL, id, err)
			}
			specs[id] = spec
		}
		if s, err = sched.Resume(f.Traverser(), doc.Sched, specs, sopts...); err != nil {
			return nil, nil, fmt.Errorf("%w: snapshot scheduler state: %v", wal.ErrWAL, err)
		}
		s.RestoreStats(doc.Stats)
	} else {
		var err error
		if f, s, err = fresh(); err != nil {
			return nil, nil, err
		}
	}

	var rec sched.Rec
	err := st.log.Replay(func(r wal.Record) error {
		if err := decodeRec(r.Type, r.Payload, &rec); err != nil {
			return fmt.Errorf("record %d: %w", r.LSN, err)
		}
		if rec.Kind == sched.RecCommit {
			return nil
		}
		if err := s.Apply(&rec); err != nil {
			return fmt.Errorf("%w: record %d: %v", wal.ErrWAL, r.LSN, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Blocking signatures died with the crashed process; re-attempt
	// everything on the next cycle.
	s.ForceFullWake()
	return f, s, nil
}

// Attach wires the store into a live pair: the scheduler's journal sink
// feeds the WAL and the delta stream is tapped to catch store mutations
// made outside any journaled command (those force a snapshot, since
// replay cannot reproduce them).
func (st *Store) Attach(f *fluxion.Fluxion, s *sched.Scheduler) {
	st.f, st.s = f, s
	st.untap = f.TapDeltas(st.observeDelta)
	s.SetJournal(st.record)
}

// observeDelta runs on every published capacity delta. Deltas inside a
// journal command are reproduced by replay; anything else (direct
// Cancel/Grow/Shrink/MarkDown on the fluxion handle) is out-of-band and
// marks the snapshot dirty.
func (st *Store) observeDelta(fluxion.ResourceDelta) {
	if st.s == nil || !st.s.InCommand() {
		st.extDirty = true
	}
}

// record is the journal sink: one WAL frame per record, commit-flagged at
// command boundaries, with snapshot scheduling at commits.
func (st *Store) record(r *sched.Rec) {
	if st.degraded {
		return
	}
	if r.Kind == sched.RecCommit {
		if _, err := st.log.Append(byte(r.Kind), true, nil); err != nil {
			st.degrade(err)
			return
		}
		st.sinceSnap++
		if st.sinceSnap >= st.snapEvery || st.extDirty {
			st.snapshot()
		}
		return
	}
	st.buf = appendRec(st.buf[:0], r)
	if _, err := st.log.Append(byte(r.Kind), false, st.buf); err != nil {
		st.degrade(err)
	}
}

// Snapshot forces a snapshot now (clean shutdowns and tests; the hot path
// snapshots automatically at commit boundaries).
func (st *Store) Snapshot() error {
	if st.degraded {
		return st.Err()
	}
	st.snapshot()
	return st.Err()
}

func (st *Store) snapshot() {
	doc, err := st.encodeSnapshot()
	if err != nil {
		st.degrade(err)
		return
	}
	if err := st.log.SaveSnapshot(doc); err != nil {
		st.degrade(err)
		return
	}
	st.sinceSnap, st.extDirty = 0, false
}

func (st *Store) encodeSnapshot() ([]byte, error) {
	res, err := st.f.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("%w: resource checkpoint: %v", wal.ErrWAL, err)
	}
	sch, err := st.s.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("%w: scheduler checkpoint: %v", wal.ErrWAL, err)
	}
	doc := snapshotDoc{Version: 1, Resource: res, Sched: sch, Stats: st.s.Stats()}
	for id, job := range st.s.Jobs() {
		switch job.State {
		case sched.StateCompleted, sched.StateFailed, sched.StateUnsatisfiable:
			continue
		}
		if job.Spec == nil {
			continue
		}
		if doc.Specs == nil {
			doc.Specs = make(map[int64]snapedSpec)
		}
		yaml := job.Spec.YAML()
		doc.Specs[id] = snapedSpec{Hash: specHash(yaml), YAML: string(yaml)}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot encode: %v", wal.ErrWAL, err)
	}
	return out, nil
}

// degrade poisons the store after a storage fault: report once, detach
// from the live pair, and let the scheduler continue non-durably.
func (st *Store) degrade(err error) {
	if st.degraded {
		return
	}
	st.degraded = true
	st.err = err
	fmt.Fprintf(st.warn, "wal: durability disabled: %v\n", err)
	st.detach()
}

func (st *Store) detach() {
	if st.s != nil {
		st.s.SetJournal(nil)
	}
	if st.untap != nil {
		st.untap()
		st.untap = nil
	}
}

// Close snapshots any un-snapshotted tail (making the next open replay
// nothing) and closes the WAL. The sticky storage error, if any, is
// returned — a degraded store closes cleanly but reports why.
func (st *Store) Close() error {
	if !st.degraded && st.s != nil && (st.sinceSnap > 0 || st.extDirty) {
		st.snapshot()
	}
	st.detach()
	cerr := st.log.Close()
	if err := st.Err(); err != nil {
		return err
	}
	return cerr
}
