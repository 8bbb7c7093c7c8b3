// Package planner implements Fluxion's scalable scheduled-time-point
// management (paper §4.1).
//
// A Planner tracks the availability of a single resource pool over time,
// like a physical calendar. Activities are spans: an amount of the resource
// planned for a half-open time window [start, start+duration). Span
// boundaries induce scheduled points; between two consecutive points the
// amount in use is constant.
//
// One red-black tree, the scheduled-point (SP) tree, indexes the points by
// time. A point does not store how much is in use there, only its delta:
// the units scheduled at this point minus those scheduled at the previous
// one. The amount in use at a point is therefore the prefix sum of the
// deltas up to it, and a span changes exactly two deltas — at its start and
// at its end — however many points it covers. Every node carries bottom-up
// aggregates over its subtree's in-order deltas (sum, left-subtree sum,
// maximum and minimum prefix, latest time), so each operation is one
// descent or one root-ward refresh, O(log N):
//
//   - AddSpan/RemoveSpan: find or create the two boundary points, edit
//     their deltas, refresh their root paths;
//   - AvailAt, AvailDuring, CanFit: the maximum prefix over a window,
//     found in a single fused descent;
//   - AvailTimeFirst (paper Algorithm 1, FINDEARLIESTAT): a min-prefix
//     descent for the earliest point with enough remaining capacity;
//   - Update (grow/shrink the pool): only the total changes.
//
// The paper's second index, the earliest-time (ET) tree, keys points by
// remaining capacity. A span changes the remaining capacity of every point
// it covers, so each span edit had to delete and re-insert all K covered
// points of the ET tree; a key cannot absorb a range change the way a
// prefix-sum delta does. This package answers FINDEARLIESTAT from the
// prefix-sum SP tree instead and keeps no ET tree — its one deliberate
// departure from the paper's data structures.
//
// The representation is slab-based: scheduled points live in one flat
// slice per planner and the SP tree is an index-linked arena
// (rbtree.Arena), so an active calendar with N points costs two contiguous
// allocations instead of ~2N heap objects. A planner with no spans is
// *flat*: it holds no slab and no tree at all — availability is total
// everywhere — which makes the resting per-vertex calendar a few plain
// fields. The slab and tree materialize on the first AddSpan and are reset
// (capacity retained) when the last span is removed.
//
// # Single writer
//
// Planner and Multi hold no locks. A live one belongs to the traverser
// whose graph holds it, and is read or written only under that
// traverser's lock: edits (span installation and removal, status and
// elasticity updates) under the writer side, reads under at least the
// reader side. Epoch builds run under the reader side too, so they see
// the planners between two edits, never in the middle of one. The shard
// router reads a shard's root filter only after the lockstep barrier,
// when no cycle runs on that shard. Everything else that reads without
// the lock — speculative matches, tests probing a running system — reads
// the immutable Snapshots of a pinned epoch instead. A planner nobody
// else can reach (a fresh New, a benchmark's own calendar) needs no
// coordination at all.
package planner

import (
	"errors"
	"fmt"
	"sort"

	"fluxion/internal/rbtree"
)

// Errors returned by Planner operations.
var (
	// ErrOutOfRange reports a time outside [Base, Base+Horizon).
	ErrOutOfRange = errors.New("planner: time out of range")
	// ErrInvalid reports an invalid argument (non-positive duration,
	// negative or oversized request).
	ErrInvalid = errors.New("planner: invalid argument")
	// ErrNoSpace reports that the request cannot be satisfied in the
	// queried window (or, for AvailTimeFirst, anywhere on the horizon).
	ErrNoSpace = errors.New("planner: insufficient resources")
	// ErrNotFound reports an unknown span ID.
	ErrNotFound = errors.New("planner: span not found")
)

// noPoint is the null point-slab index.
const noPoint int32 = -1

// schedPoint is one scheduled time point: the boundary of at least one span
// (or the planner's base point). Points live in the planner's slab and
// reference their tree nodes by index.
type schedPoint struct {
	at int64
	// delta is the units scheduled throughout [at, next point) minus
	// those scheduled just before at: the scheduled amount here is the
	// sum of the deltas of every point up to and including this one.
	delta int64

	// SP-tree aggregates over the in-order deltas of the subtree rooted
	// at this point's node: their sum, the sum of the left child's
	// subtree, the maximum and minimum non-empty prefix sums, and the
	// latest time. All are recomputed bottom-up by spUpdate.
	sum     int64
	leftSum int64
	maxPre  int64
	minPre  int64
	maxAt   int64

	refCount int32 // spans starting or ending here; base point is pinned
	spNode   int32 // this point's SP-arena node; freelist link while free
}

// Span is a planned activity: planned units reserved during [Start, Last).
type Span struct {
	ID      int64
	Start   int64
	Last    int64 // exclusive end
	Planned int64
}

// Planner tracks one resource pool's availability over time. It is not
// safe for concurrent use; see the package doc for who may touch it.
type Planner struct {
	base    int64
	horizon int64
	total   int64

	// Lazy calendar: nil/empty until the first AddSpan. While no spans
	// exist the planner is flat — remaining == total over the whole
	// horizon — and every query short-circuits on plain fields.
	sp  *rbtree.Arena[int32]
	pts []schedPoint
	// freePt heads the slab freelist, linked through spNode.
	freePt int32

	// spans holds live spans by value in ascending ID order: IDs are handed
	// out monotonically, so AddSpan appends and lookups binary-search. The
	// backing array is released on demotion, so a resting planner carries
	// only the slice header.
	spans      []Span
	nextSpanID int64
}

// New creates a planner for a pool of total units of resourceType, covering
// times in [base, base+horizon). horizon and total must be positive. The
// type is documentation at the call site only: whoever owns the planner (a
// vertex, a Multi's type key) already knows it, so it is not stored.
func New(base, horizon, total int64, resourceType string) (*Planner, error) {
	p := new(Planner)
	if err := Init(p, base, horizon, total, resourceType); err != nil {
		return nil, err
	}
	return p, nil
}

// Init initializes p in place, exactly like New but without allocating.
// The resource graph carves its per-vertex planners out of one contiguous
// slab at Finalize, so a million resting planners are one allocation
// instead of a million heap objects. p must be zero-valued (or otherwise
// unused); Init does not free an existing calendar.
func Init(p *Planner, base, horizon, total int64, _ string) error {
	if horizon <= 0 || total <= 0 {
		return fmt.Errorf("%w: horizon=%d total=%d", ErrInvalid, horizon, total)
	}
	if base > (1<<62) || horizon > (1<<62) {
		return fmt.Errorf("%w: base/horizon too large", ErrInvalid)
	}
	p.base = base
	p.horizon = horizon
	p.total = total
	p.freePt = noPoint
	p.nextSpanID = 1
	return nil
}

// MustNew is New but panics on error; for tests and static configuration.
func MustNew(base, horizon, total int64, resourceType string) *Planner {
	p, err := New(base, horizon, total, resourceType)
	if err != nil {
		panic(err)
	}
	return p
}

// active reports whether the slab calendar is live (at least the base
// point exists).
func (p *Planner) active() bool { return p.sp != nil && p.sp.Len() > 0 }

// spLess orders SP-tree items (point indices) by time.
func (p *Planner) spLess(a, b int32) bool { return p.pts[a].at < p.pts[b].at }

// spUpdate recomputes n's subtree aggregates from its point and children.
func (p *Planner) spUpdate(n int32) {
	pt := &p.pts[p.sp.Item(n)]
	var leftSum int64
	maxPre, minPre := pt.delta, pt.delta
	if l := p.sp.Left(n); l != rbtree.None {
		lp := &p.pts[p.sp.Item(l)]
		leftSum = lp.sum
		maxPre = max(lp.maxPre, leftSum+pt.delta)
		minPre = min(lp.minPre, leftSum+pt.delta)
	}
	sum, maxAt := leftSum+pt.delta, pt.at
	if r := p.sp.Right(n); r != rbtree.None {
		rp := &p.pts[p.sp.Item(r)]
		maxPre = max(maxPre, sum+rp.maxPre)
		minPre = min(minPre, sum+rp.minPre)
		sum += rp.sum
		maxAt = rp.maxAt
	}
	pt.sum, pt.leftSum, pt.maxPre, pt.minPre, pt.maxAt = sum, leftSum, maxPre, minPre, maxAt
}

// materialize builds the slab calendar: tree plus the base point. Called
// on the first AddSpan (and again after a demotion).
func (p *Planner) materialize() {
	if p.sp == nil {
		p.sp = rbtree.NewArena(p.spLess)
		p.sp.SetUpdate(p.spUpdate)
	}
	if p.sp.Len() == 0 {
		i := p.allocPoint(p.base)
		p.pts[i].spNode = p.sp.Insert(i)
	}
}

// demote drops the slab calendar once the last span is gone, keeping the
// allocated capacity so a busy/idle/busy vertex does not churn the heap.
func (p *Planner) demote() {
	p.sp.Reset()
	p.pts = p.pts[:0]
	p.freePt = noPoint
}

// allocPoint takes a slot from the slab freelist or grows the slab.
func (p *Planner) allocPoint(at int64) int32 {
	if f := p.freePt; f != noPoint {
		p.freePt = p.pts[f].spNode
		p.pts[f] = schedPoint{at: at}
		return f
	}
	p.pts = append(p.pts, schedPoint{at: at})
	return int32(len(p.pts) - 1)
}

// freePoint recycles a slab slot onto the freelist.
func (p *Planner) freePoint(i int32) {
	p.pts[i] = schedPoint{spNode: p.freePt}
	p.freePt = i
}

// Base returns the first schedulable time.
func (p *Planner) Base() int64 { return p.base }

// Horizon returns the schedulable duration from Base.
func (p *Planner) Horizon() int64 { return p.horizon }

// Total returns the pool size.
func (p *Planner) Total() int64 {
	return p.total
}

// FlatTotal returns the pool size and true when the planner is flat (no
// spans: availability is Total over the whole horizon). Epoch snapshotting
// uses it to share one Snapshot among all resting planners of equal size.
func (p *Planner) FlatTotal() (int64, bool) {
	return p.total, len(p.spans) == 0
}

// SpanCount returns the number of live spans.
func (p *Planner) SpanCount() int {
	return len(p.spans)
}

// PointCount returns the number of scheduled points (including the base
// point; a flat planner reports 1 for its virtual base point).
func (p *Planner) PointCount() int {
	if !p.active() {
		return 1
	}
	return p.sp.Len()
}

// Span returns a copy of the span with the given ID.
func (p *Planner) Span(id int64) (Span, error) {
	i, ok := p.spanIndex(id)
	if !ok {
		return Span{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return p.spans[i], nil
}

// spanIndex returns the position of span id in p.spans.
func (p *Planner) spanIndex(id int64) (int, bool) {
	i := sort.Search(len(p.spans), func(i int) bool { return p.spans[i].ID >= id })
	return i, i < len(p.spans) && p.spans[i].ID == id
}

// end returns the exclusive end of the schedulable range.
func (p *Planner) end() int64 { return p.base + p.horizon }

// floor returns the slab index of the last point at or before t and the
// units scheduled there (noPoint, 0 if t < base). Callers must have
// checked p.active().
func (p *Planner) floor(t int64) (int32, int64) {
	best, sched := noPoint, int64(0)
	for n := p.sp.Root(); n != rbtree.None; {
		i := p.sp.Item(n)
		pt := &p.pts[i]
		if pt.at > t {
			n = p.sp.Left(n)
			continue
		}
		sched += pt.leftSum + pt.delta
		best = i
		n = p.sp.Right(n)
	}
	return best, sched
}

// getOrCreatePoint returns the point at exactly time t, creating it if
// needed. A new point's delta is zero: it inherits its predecessor's
// scheduled amount and leaves every later prefix sum unchanged.
func (p *Planner) getOrCreatePoint(t int64) int32 {
	if f, _ := p.floor(t); p.pts[f].at == t {
		return f
	}
	i := p.allocPoint(t)
	n := p.sp.Insert(i)
	p.pts[i].spNode = n
	return i
}

// edit adds units to the amount scheduled from time t onward and ref to the
// boundary count of the point at t: one delta and one root-ward refresh,
// however many points lie beyond t. A point no span bounds any more has
// delta zero again and is dropped (the base point is pinned).
func (p *Planner) edit(t, units int64, ref int32) {
	i := p.getOrCreatePoint(t)
	pt := &p.pts[i]
	pt.delta += units
	pt.refCount += ref
	if pt.refCount == 0 && pt.at != p.base {
		p.sp.Delete(pt.spNode)
		p.freePoint(i)
		return
	}
	p.sp.Refresh(pt.spNode)
}

// AvailAt returns the units available at instant t.
func (p *Planner) AvailAt(t int64) (int64, error) {
	if t < p.base || t >= p.end() {
		return 0, fmt.Errorf("%w: t=%d", ErrOutOfRange, t)
	}
	if !p.active() {
		return p.total, nil
	}
	_, sched := p.floor(t)
	return p.total - sched, nil
}

// AvailDuring returns the minimum units available throughout
// [start, start+duration).
func (p *Planner) AvailDuring(start, duration int64) (int64, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("%w: duration=%d", ErrInvalid, duration)
	}
	if start < p.base || start+duration > p.end() {
		return 0, fmt.Errorf("%w: window [%d,%d)", ErrOutOfRange, start, start+duration)
	}
	if !p.active() {
		return p.total, nil
	}
	return p.total - p.peak(start, start+duration), nil
}

// peak returns the most units scheduled at any instant of [start, end):
// the maximum prefix sum over the floor point of start and every point
// strictly inside (start, end). It is one fused descent: walk down to the
// first node inside the window, picking up the prefix at the floor of
// start on the way; the rest of the window then hangs off that node's two
// subtrees as one-sided paths, each covered by whole-subtree aggregates.
func (p *Planner) peak(start, end int64) int64 {
	var off int64 // sum of the deltas in-order before n's subtree
	n := p.sp.Root()
	for n != rbtree.None {
		pt := &p.pts[p.sp.Item(n)]
		if pt.at <= start {
			off += pt.leftSum + pt.delta
			n = p.sp.Right(n)
		} else if pt.at >= end {
			n = p.sp.Left(n)
		} else {
			break
		}
	}
	atFloor := off
	if n == rbtree.None {
		return atFloor
	}
	split := &p.pts[p.sp.Item(n)]
	here := off + split.leftSum + split.delta
	peak := here
	// Left of the split: the floor of start, then points in (start, split).
	for m, o := p.sp.Left(n), off; m != rbtree.None; {
		pt := &p.pts[p.sp.Item(m)]
		pre := o + pt.leftSum + pt.delta // scheduled at m
		if pt.at <= start {
			o, atFloor = pre, pre
			m = p.sp.Right(m)
			continue
		}
		// m and its whole right subtree lie inside the window.
		peak = max(peak, pre)
		if r := p.sp.Right(m); r != rbtree.None {
			peak = max(peak, pre+p.pts[p.sp.Item(r)].maxPre)
		}
		m = p.sp.Left(m)
	}
	// Right of the split: points in (split, end).
	for m, o := p.sp.Right(n), here; m != rbtree.None; {
		pt := &p.pts[p.sp.Item(m)]
		if pt.at >= end {
			m = p.sp.Left(m)
			continue
		}
		// m and its whole left subtree lie inside the window.
		if l := p.sp.Left(m); l != rbtree.None {
			peak = max(peak, o+p.pts[p.sp.Item(l)].maxPre)
		}
		o += pt.leftSum + pt.delta
		peak = max(peak, o)
		m = p.sp.Right(m)
	}
	return max(peak, atFloor)
}

// CanFit reports whether request units fit throughout [start, start+duration).
func (p *Planner) CanFit(start, duration, request int64) bool {
	avail, err := p.AvailDuring(start, duration)
	return err == nil && avail >= request
}

// nextPointGE returns the earliest point of n's subtree strictly after
// `after` that schedules at most limit units (leaves at least total-limit
// remaining), or noPoint; off is the sum of the deltas in-order before the
// subtree. It is paper Algorithm 1's FINDEARLIESTAT as a descent of the
// time-keyed tree, pruning every subtree whose minimum prefix (least
// scheduled) still exceeds limit or whose latest time is not after
// `after`. O(log N).
func (p *Planner) nextPointGE(n int32, off, after, limit int64) int32 {
	if n == rbtree.None {
		return noPoint
	}
	i := p.sp.Item(n)
	pt := &p.pts[i]
	if off+pt.minPre > limit || pt.maxAt <= after {
		return noPoint
	}
	here := off + pt.leftSum + pt.delta
	if pt.at > after {
		if r := p.nextPointGE(p.sp.Left(n), off, after, limit); r != noPoint {
			return r
		}
		if here <= limit {
			return i
		}
	}
	return p.nextPointGE(p.sp.Right(n), here, after, limit)
}

// lastOver returns the last point in (lo, hi) of n's subtree scheduling
// more than limit units, or noPoint; off is the sum of the deltas in-order
// before the subtree. It is a max-prefix descent that tries later points
// first and prunes every subtree whose maximum prefix stays within limit.
func (p *Planner) lastOver(n int32, off, lo, hi, limit int64) int32 {
	for n != rbtree.None {
		i := p.sp.Item(n)
		pt := &p.pts[i]
		if off+pt.maxPre <= limit {
			return noPoint
		}
		here := off + pt.leftSum + pt.delta
		switch {
		case pt.at >= hi:
			n = p.sp.Left(n)
		case pt.at <= lo:
			off, n = here, p.sp.Right(n)
		default:
			if r := p.lastOver(p.sp.Right(n), here, lo, hi, limit); r != noPoint {
				return r
			}
			if here > limit {
				return i
			}
			n = p.sp.Left(n)
		}
	}
	return noPoint
}

// fitAfter returns the earliest scheduled-point time strictly after `after`
// at which request units fit throughout the following duration. A
// candidate qualifies on its own remaining capacity, so it fits unless a
// later point inside its window is short; every candidate up to the last
// such point has that point in its window too, so the search resumes after
// it instead of trying them one by one.
func (p *Planner) fitAfter(after, duration, request int64) (int64, error) {
	limit := p.total - request
	for {
		i := p.nextPointGE(p.sp.Root(), 0, after, limit)
		if i == noPoint {
			return -1, ErrNoSpace
		}
		t := p.pts[i].at
		if t+duration > p.end() {
			// Candidates arrive in increasing time order; all later
			// ones overflow the horizon too.
			return -1, ErrNoSpace
		}
		short := p.lastOver(p.sp.Root(), 0, t, t+duration, limit)
		if short == noPoint {
			return t, nil
		}
		after = p.pts[short].at
	}
}

// AvailTimeFirst returns the earliest time t >= at such that request units
// are available throughout [t, t+duration). It first tries at itself;
// afterwards the candidates are the scheduled points after at with enough
// remaining capacity (paper Algorithm 1), in time order, skipping every
// candidate whose window contains a known short point.
func (p *Planner) AvailTimeFirst(at, duration, request int64) (int64, error) {
	if duration <= 0 || request < 0 {
		return -1, fmt.Errorf("%w: duration=%d request=%d", ErrInvalid, duration, request)
	}
	if request > p.total {
		return -1, fmt.Errorf("%w: request %d > total %d", ErrNoSpace, request, p.total)
	}
	if at < p.base {
		at = p.base
	}
	if at+duration > p.end() {
		return -1, fmt.Errorf("%w: window start %d", ErrOutOfRange, at)
	}
	if p.CanFit(at, duration, request) {
		return at, nil
	}
	return p.fitAfter(at, duration, request)
}

// AvailPointTimeAfter returns the earliest scheduled-point time strictly
// greater than after at which request units are available throughout the
// following duration. Unlike AvailTimeFirst it never returns `after`
// itself, which makes it the candidate-time iterator for reservations:
// repeated calls with the previous result walk distinct availability
// change points (paper §3.4, Figure 2).
func (p *Planner) AvailPointTimeAfter(after, duration, request int64) (int64, error) {
	if duration <= 0 || request < 0 {
		return -1, fmt.Errorf("%w: duration=%d request=%d", ErrInvalid, duration, request)
	}
	if request > p.total {
		return -1, fmt.Errorf("%w: request %d > total %d", ErrNoSpace, request, p.total)
	}
	if !p.active() {
		// Flat planner: the only availability change point is the
		// virtual base point.
		if p.base > after && p.base+duration <= p.end() {
			return p.base, nil
		}
		return -1, ErrNoSpace
	}
	return p.fitAfter(after, duration, request)
}

// AddSpan plans request units during [start, start+duration) and returns
// the span ID. It fails with ErrNoSpace if the window cannot hold the
// request.
func (p *Planner) AddSpan(start, duration, request int64) (int64, error) {
	if duration <= 0 || request <= 0 {
		return -1, fmt.Errorf("%w: duration=%d request=%d", ErrInvalid, duration, request)
	}
	avail, err := p.AvailDuring(start, duration)
	if err != nil {
		return -1, err
	}
	if avail < request {
		return -1, fmt.Errorf("%w: want %d, have %d in [%d,%d)", ErrNoSpace, request, avail, start, start+duration)
	}
	p.materialize()
	p.edit(start, request, 1)
	p.edit(start+duration, -request, 1)
	id := p.nextSpanID
	p.nextSpanID++
	p.spans = append(p.spans, Span{ID: id, Start: start, Last: start + duration, Planned: request})
	return id, nil
}

// RemoveSpan unplans the span with the given ID, releasing its resources
// and garbage-collecting boundary points no span references anymore. When
// the last span goes, the slab calendar is demoted back to flat.
func (p *Planner) RemoveSpan(id int64) error {
	at, ok := p.spanIndex(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	s := p.spans[at]
	if len(p.spans) == 1 {
		p.spans = nil
		p.demote()
		return nil
	}
	// Close the gap from the shorter side: spans mostly retire oldest
	// first, and dropping the head is then a reslice, not a memmove.
	if at < len(p.spans)/2 {
		copy(p.spans[1:at+1], p.spans[:at])
		p.spans = p.spans[1:]
	} else {
		p.spans = append(p.spans[:at], p.spans[at+1:]...)
	}
	p.edit(s.Start, -s.Planned, -1)
	p.edit(s.Last, s.Planned, -1)
	return nil
}

// Update grows or shrinks the pool by delta units, applied uniformly across
// the whole horizon. Shrinking fails with ErrNoSpace if any point would go
// negative.
func (p *Planner) Update(delta int64) error {
	if delta == 0 {
		return nil
	}
	total := p.total + delta
	if !p.active() {
		if total < 0 {
			return fmt.Errorf("%w: shrink by %d leaves point %d negative", ErrNoSpace, -delta, p.base)
		}
	} else if total < p.pts[p.sp.Item(p.sp.Root())].maxPre {
		// Name the first point the shrink would leave negative.
		var sched int64
		for n := p.sp.Min(); n != rbtree.None; n = p.sp.Next(n) {
			pt := &p.pts[p.sp.Item(n)]
			if sched += pt.delta; sched > total {
				return fmt.Errorf("%w: shrink by %d leaves point %d negative", ErrNoSpace, -delta, pt.at)
			}
		}
	}
	p.total = total
	return nil
}

// Points invokes fn for every scheduled point in time order with that
// point's time and available amount, stopping early if fn returns false.
func (p *Planner) Points(fn func(at, avail int64) bool) {
	if !p.active() {
		fn(p.base, p.total)
		return
	}
	var sched int64
	for n := p.sp.Min(); n != rbtree.None; n = p.sp.Next(n) {
		pt := &p.pts[p.sp.Item(n)]
		sched += pt.delta
		if !fn(pt.at, p.total-sched) {
			return
		}
	}
}

// Spans invokes fn for every live span in ascending ID order, stopping
// early if fn returns false.
func (p *Planner) Spans(fn func(s Span) bool) {
	for _, s := range p.spans {
		if !fn(s) {
			return
		}
	}
}

// Utilization returns the fraction of unit-seconds in use over [from, to):
// the integral of scheduled capacity divided by total * (to - from).
func (p *Planner) Utilization(from, to int64) (float64, error) {
	if to <= from {
		return 0, fmt.Errorf("%w: window [%d,%d)", ErrInvalid, from, to)
	}
	if from < p.base || to > p.end() {
		return 0, fmt.Errorf("%w: window [%d,%d)", ErrOutOfRange, from, to)
	}
	if !p.active() {
		return 0, nil
	}
	var used int64
	cur, sched := p.floor(from)
	curAt := from
	for n := p.sp.Next(p.pts[cur].spNode); ; n = p.sp.Next(n) {
		if n == rbtree.None || p.pts[p.sp.Item(n)].at >= to {
			used += sched * (to - curAt)
			break
		}
		pt := &p.pts[p.sp.Item(n)]
		used += sched * (pt.at - curAt)
		sched += pt.delta
		curAt = pt.at
	}
	return float64(used) / float64(p.total*(to-from)), nil
}
