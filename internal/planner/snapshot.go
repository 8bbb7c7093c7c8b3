package planner

import (
	"fmt"
	"sort"

	"fluxion/internal/rbtree"
)

// Snapshot is an immutable, point-in-time copy of a Planner's availability
// step function. It answers the read-side queries the match kernel needs
// (AvailDuring, CanFit, AvailAt) with zero locking and zero allocation:
// the step function is two parallel sorted arrays, and a query is a
// binary-search floor plus a linear scan of the window.
//
// Snapshots are the leaves of the resource graph's MVCC epochs: an epoch
// holds one Snapshot per vertex planner (and per filter member), match
// workers read them without any synchronization, and the single writer
// replaces them wholesale when it publishes the next epoch. A Snapshot is
// never mutated after Snapshot() returns.
type Snapshot struct {
	base    int64
	horizon int64
	total   int64

	// times is the sorted scheduled-point times (times[0] == base);
	// avail[i] is the units available throughout [times[i], times[i+1]).
	// The two are halves of one backing array.
	times []int64
	avail []int64
}

// Snapshot captures the planner's current step function; the result
// shares nothing with the live planner. A flat planner snapshots to the
// single virtual base point.
func (p *Planner) Snapshot() *Snapshot {
	if !p.active() {
		s := p.newSnapshot(1)
		s.times[0], s.avail[0] = p.base, p.total
		return s
	}
	s := p.newSnapshot(p.sp.Len())
	i := 0
	var sched int64
	for node := p.sp.Min(); node != rbtree.None; node = p.sp.Next(node) {
		pt := &p.pts[p.sp.Item(node)]
		sched += pt.delta
		s.times[i], s.avail[i] = pt.at, p.total-sched
		i++
	}
	return s
}

// newSnapshot returns an n-point snapshot whose times and avail share one
// backing array: one allocation beside the header, however many points.
func (p *Planner) newSnapshot(n int) *Snapshot {
	buf := make([]int64, 2*n)
	return &Snapshot{base: p.base, horizon: p.horizon, total: p.total, times: buf[:n:n], avail: buf[n:]}
}

// Base returns the first schedulable time.
func (s *Snapshot) Base() int64 { return s.base }

// Horizon returns the schedulable duration from Base.
func (s *Snapshot) Horizon() int64 { return s.horizon }

// Total returns the pool size at capture time.
func (s *Snapshot) Total() int64 { return s.total }

// PointCount returns the number of captured scheduled points.
func (s *Snapshot) PointCount() int { return len(s.times) }

// end returns the exclusive end of the schedulable range.
func (s *Snapshot) end() int64 { return s.base + s.horizon }

// floor returns the index of the last point at or before t (-1 if t is
// before the base point).
func (s *Snapshot) floor(t int64) int {
	// sort.Search over an int64 slice compiles to a tight loop and
	// allocates nothing.
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t })
	return i - 1
}

// AvailAt returns the units available at instant t.
func (s *Snapshot) AvailAt(t int64) (int64, error) {
	if t < s.base || t >= s.end() {
		return 0, fmt.Errorf("%w: t=%d", ErrOutOfRange, t)
	}
	return s.avail[s.floor(t)], nil
}

// AvailDuring returns the minimum units available throughout
// [start, start+duration).
func (s *Snapshot) AvailDuring(start, duration int64) (int64, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("%w: duration=%d", ErrInvalid, duration)
	}
	if start < s.base || start+duration > s.end() {
		return 0, fmt.Errorf("%w: window [%d,%d)", ErrOutOfRange, start, start+duration)
	}
	i := s.floor(start)
	min := s.avail[i]
	for i++; i < len(s.times) && s.times[i] < start+duration; i++ {
		if s.avail[i] < min {
			min = s.avail[i]
		}
	}
	return min, nil
}

// CanFit reports whether request units fit throughout [start,
// start+duration).
func (s *Snapshot) CanFit(start, duration, request int64) bool {
	avail, err := s.AvailDuring(start, duration)
	return err == nil && avail >= request
}

// MultiSnapshot is the immutable counterpart of Multi: per-resource-type
// snapshots indexed by the same dense interned type IDs as Multi's member
// table. It backs the epoch view of a vertex's ancestor filter.
type MultiSnapshot struct {
	byID []*Snapshot
}

// SnapshotByIDWith captures every member planner, keyed exactly like the
// live Multi's PlannerByID, with member capture delegated to snap so the
// caller can substitute a caching capture: the resource graph dedups the
// snapshots of flat planners (no spans), which at rest is almost all of
// them, so an epoch holds O(distinct pool sizes) snapshot objects instead
// of one per vertex.
func (m *Multi) SnapshotByIDWith(snap func(p *Planner) *Snapshot) *MultiSnapshot {
	ms := &MultiSnapshot{byID: make([]*Snapshot, len(m.byID))}
	for i, p := range m.byID {
		if p != nil {
			ms.byID[i] = snap(p)
		}
	}
	return ms
}

// ByID returns the member snapshot for a dense interned type ID, or nil
// when the type has no member (or was not indexed at capture time).
func (ms *MultiSnapshot) ByID(id int32) *Snapshot {
	if ms == nil || id < 0 || int(id) >= len(ms.byID) {
		return nil
	}
	return ms.byID[id]
}
