// Package planner implements Fluxion's scalable scheduled-time-point
// management (paper §4.1).
//
// A Planner tracks the availability of a single resource pool over time,
// like a physical calendar. Activities are spans: an amount of the resource
// planned for a half-open time window [start, start+duration). Span
// boundaries induce scheduled points; between two consecutive points the
// amount in use is constant.
//
// Two red-black trees index the points:
//
//   - the scheduled-point (SP) tree, keyed by time, answers "how much is
//     available at time t" and window-minimum queries in O(log N + K);
//   - the earliest-time (ET) tree, keyed by remaining capacity and
//     augmented with the subtree-minimum scheduled time, answers "what is
//     the earliest point at which request r fits" in O(log N) (paper
//     Algorithm 1).
//
// The representation is slab-based: scheduled points live in one flat
// slice per planner and the two trees are index-linked arenas
// (rbtree.Arena), so an active calendar with N points costs three
// contiguous allocations instead of ~3N heap objects. A planner with no
// spans is *flat*: it holds no slab and no trees at all — availability is
// total everywhere — which makes the resting per-vertex calendar a few
// plain fields. The slab and trees materialize on the first AddSpan and
// are reset (capacity retained) when the last span is removed.
package planner

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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
// (or the planner's base point). scheduled/remaining describe the interval
// [at, nextPoint.at). Points live in the planner's slab and reference each
// other and their tree nodes by index.
type schedPoint struct {
	at        int64
	scheduled int64
	remaining int64

	// SP-tree augmentation: the maximum remaining and maximum at in
	// the SP subtree rooted at this point's node. They power the
	// time-filtered candidate search (nextPointGE) that iterates
	// qualifying scheduled points in O(log N) each.
	spMaxRemaining int64
	spMaxAt        int64

	// ET-tree augmentation: the slab index of the point with the minimum
	// at in the ET subtree rooted at this point's node. Doubles as the
	// freelist link while the slot is free.
	subtreeMin int32

	refCount int32 // spans starting or ending here; base point is pinned

	spNode int32 // this point's node in the SP arena
	etNode int32 // this point's node in the ET arena
	inET   bool
}

// Span is a planned activity: planned units reserved during [Start, Last).
type Span struct {
	ID      int64
	Start   int64
	Last    int64 // exclusive end
	Planned int64
}

// Planner tracks one resource pool's availability over time.
//
// A Planner is safe for concurrent use: availability queries (AvailAt,
// AvailDuring, CanFit, AvailTimeFirst, AvailPointTimeAfter, Points, Spans,
// Utilization) run concurrently under a reader lock, while mutations
// (AddSpan, RemoveSpan, Update) serialize under the writer lock. This is
// the per-vertex lock of the parallel match pipeline: many traverser
// workers may probe one pool's calendar while at most one commits to it.
type Planner struct {
	mu      sync.RWMutex
	base    int64
	horizon int64
	total   int64

	// Lazy calendar: nil/empty until the first AddSpan. While no spans
	// exist the planner is flat — remaining == total over the whole
	// horizon — and every query short-circuits on plain fields.
	sp  *rbtree.Arena[int32]
	et  *rbtree.Arena[int32]
	pts []schedPoint
	// freePt heads the slab freelist, linked through subtreeMin.
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
// point exists). Callers hold p.mu.
func (p *Planner) active() bool { return p.sp != nil && p.sp.Len() > 0 }

// spLess orders SP-tree items (point indices) by time.
func (p *Planner) spLess(a, b int32) bool { return p.pts[a].at < p.pts[b].at }

// etLess orders ET-tree items by remaining capacity, then time.
func (p *Planner) etLess(a, b int32) bool {
	pa, pb := &p.pts[a], &p.pts[b]
	if pa.remaining != pb.remaining {
		return pa.remaining < pb.remaining
	}
	return pa.at < pb.at
}

func (p *Planner) etUpdate(n int32) {
	i := p.et.Item(n)
	m := i
	if l := p.et.Left(n); l != rbtree.None {
		if lm := p.pts[p.et.Item(l)].subtreeMin; p.pts[lm].at < p.pts[m].at {
			m = lm
		}
	}
	if r := p.et.Right(n); r != rbtree.None {
		if rm := p.pts[p.et.Item(r)].subtreeMin; p.pts[rm].at < p.pts[m].at {
			m = rm
		}
	}
	p.pts[i].subtreeMin = m
}

func (p *Planner) spUpdate(n int32) {
	i := p.sp.Item(n)
	pt := &p.pts[i]
	maxRem, maxAt := pt.remaining, pt.at
	if l := p.sp.Left(n); l != rbtree.None {
		if li := &p.pts[p.sp.Item(l)]; li.spMaxRemaining > maxRem {
			maxRem = li.spMaxRemaining
		}
	}
	if r := p.sp.Right(n); r != rbtree.None {
		ri := &p.pts[p.sp.Item(r)]
		if ri.spMaxRemaining > maxRem {
			maxRem = ri.spMaxRemaining
		}
		if ri.spMaxAt > maxAt {
			maxAt = ri.spMaxAt
		}
	}
	pt.spMaxRemaining = maxRem
	pt.spMaxAt = maxAt
}

// materialize builds the slab calendar: trees plus the base point. Called
// under the writer lock on the first AddSpan (and again after a demotion).
func (p *Planner) materialize() {
	if p.sp == nil {
		p.sp = rbtree.NewArena(p.spLess)
		p.et = rbtree.NewArena(p.etLess)
		p.sp.SetUpdate(p.spUpdate)
		p.et.SetUpdate(p.etUpdate)
	}
	if p.sp.Len() == 0 {
		i := p.allocPoint(p.base, 0, p.total)
		pt := &p.pts[i]
		pt.subtreeMin = i
		pt.spMaxRemaining, pt.spMaxAt = p.total, p.base
		pt.spNode = p.sp.Insert(i)
		pt.etNode = p.et.Insert(i)
		pt.inET = true
	}
}

// demote drops the slab calendar once the last span is gone, keeping the
// allocated capacity so a busy/idle/busy vertex does not churn the heap.
func (p *Planner) demote() {
	p.sp.Reset()
	p.et.Reset()
	p.pts = p.pts[:0]
	p.freePt = noPoint
}

// allocPoint takes a slot from the slab freelist or grows the slab.
func (p *Planner) allocPoint(at, scheduled, remaining int64) int32 {
	if f := p.freePt; f != noPoint {
		p.freePt = p.pts[f].subtreeMin
		p.pts[f] = schedPoint{at: at, scheduled: scheduled, remaining: remaining}
		return f
	}
	p.pts = append(p.pts, schedPoint{at: at, scheduled: scheduled, remaining: remaining})
	return int32(len(p.pts) - 1)
}

// freePoint recycles a slab slot onto the freelist.
func (p *Planner) freePoint(i int32) {
	p.pts[i] = schedPoint{subtreeMin: p.freePt}
	p.freePt = i
}

// Base returns the first schedulable time.
func (p *Planner) Base() int64 { return p.base }

// Horizon returns the schedulable duration from Base.
func (p *Planner) Horizon() int64 { return p.horizon }

// Total returns the pool size.
func (p *Planner) Total() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.total
}

// FlatTotal returns the pool size and true when the planner is flat (no
// spans: availability is Total over the whole horizon). Epoch snapshotting
// uses it to share one Snapshot among all resting planners of equal size.
func (p *Planner) FlatTotal() (int64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.total, len(p.spans) == 0
}

// SpanCount returns the number of live spans.
func (p *Planner) SpanCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.spans)
}

// PointCount returns the number of scheduled points (including the base
// point; a flat planner reports 1 for its virtual base point).
func (p *Planner) PointCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.active() {
		return 1
	}
	return p.sp.Len()
}

// Span returns a copy of the span with the given ID.
func (p *Planner) Span(id int64) (Span, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	i, ok := p.spanIndex(id)
	if !ok {
		return Span{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return p.spans[i], nil
}

// spanIndex returns the position of span id in p.spans; callers hold p.mu.
func (p *Planner) spanIndex(id int64) (int, bool) {
	i := sort.Search(len(p.spans), func(i int) bool { return p.spans[i].ID >= id })
	return i, i < len(p.spans) && p.spans[i].ID == id
}

// end returns the exclusive end of the schedulable range.
func (p *Planner) end() int64 { return p.base + p.horizon }

// floorPoint returns the slab index of the last point at or before t
// (noPoint if t < base). Callers must have checked p.active().
func (p *Planner) floorPoint(t int64) int32 {
	// Predicate search: building a probe schedPoint for Floor would put
	// one heap allocation on every availability query.
	n := p.sp.FloorFunc(func(i int32) bool { return p.pts[i].at > t })
	if n == rbtree.None {
		return noPoint
	}
	return p.sp.Item(n)
}

// reposition refreshes both trees after a point's remaining value changed:
// the ET tree is re-keyed (remaining is its key) and the SP tree's
// max-remaining augmentation recomputed in place.
func (p *Planner) reposition(i int32) {
	pt := &p.pts[i]
	if pt.inET {
		p.et.Delete(pt.etNode)
	}
	pt.subtreeMin = i
	pt.etNode = p.et.Insert(i)
	pt.inET = true
	p.sp.Refresh(p.pts[i].spNode)
}

// getOrCreatePoint returns the point at exactly time t, creating it (with
// the scheduled amount inherited from its predecessor) if needed.
func (p *Planner) getOrCreatePoint(t int64) int32 {
	f := p.floorPoint(t)
	if p.pts[f].at == t {
		return f
	}
	i := p.allocPoint(t, p.pts[f].scheduled, p.pts[f].remaining)
	pt := &p.pts[i]
	pt.subtreeMin = i
	pt.spMaxRemaining, pt.spMaxAt = pt.remaining, pt.at
	sn := p.sp.Insert(i)
	en := p.et.Insert(i)
	pt = &p.pts[i] // Insert may have run update hooks; re-take the pointer
	pt.spNode = sn
	pt.etNode = en
	pt.inET = true
	return i
}

// dropPoint removes a point from both trees and recycles its slot.
func (p *Planner) dropPoint(i int32) {
	pt := &p.pts[i]
	p.sp.Delete(pt.spNode)
	if pt.inET {
		p.et.Delete(pt.etNode)
		pt.inET = false
	}
	p.freePoint(i)
}

// AvailAt returns the units available at instant t.
func (p *Planner) AvailAt(t int64) (int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if t < p.base || t >= p.end() {
		return 0, fmt.Errorf("%w: t=%d", ErrOutOfRange, t)
	}
	if !p.active() {
		return p.total, nil
	}
	return p.pts[p.floorPoint(t)].remaining, nil
}

// AvailDuring returns the minimum units available throughout
// [start, start+duration).
func (p *Planner) AvailDuring(start, duration int64) (int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.availDuring(start, duration)
}

// availDuring is AvailDuring without locking; callers hold p.mu.
func (p *Planner) availDuring(start, duration int64) (int64, error) {
	if duration <= 0 {
		return 0, fmt.Errorf("%w: duration=%d", ErrInvalid, duration)
	}
	if start < p.base || start+duration > p.end() {
		return 0, fmt.Errorf("%w: window [%d,%d)", ErrOutOfRange, start, start+duration)
	}
	if !p.active() {
		return p.total, nil
	}
	f := p.floorPoint(start)
	min := p.pts[f].remaining
	for n := p.sp.Next(p.pts[f].spNode); n != rbtree.None; n = p.sp.Next(n) {
		pt := &p.pts[p.sp.Item(n)]
		if pt.at >= start+duration {
			break
		}
		if pt.remaining < min {
			min = pt.remaining
		}
	}
	return min, nil
}

// CanFit reports whether request units fit throughout [start, start+duration).
func (p *Planner) CanFit(start, duration, request int64) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.canFit(start, duration, request)
}

// canFit is CanFit without locking; callers hold p.mu.
func (p *Planner) canFit(start, duration, request int64) bool {
	avail, err := p.availDuring(start, duration)
	return err == nil && avail >= request
}

// ShortfallDuring returns how many of the requested units are missing
// throughout [start, start+duration): max(0, request - AvailDuring). A
// window that falls outside the planner's range is fully short. Blocking
// signatures record this so a wakeup index can tell whether enough
// capacity was freed to make a re-match worthwhile.
func (p *Planner) ShortfallDuring(start, duration, request int64) int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	avail, err := p.availDuring(start, duration)
	if err != nil || avail < 0 {
		return request
	}
	if avail >= request {
		return 0
	}
	return request - avail
}

// minTimeGE returns the scheduled point with the smallest at among points
// whose remaining >= request (paper Algorithm 1: FINDANCHOR + FINDETPOINT,
// realized by chasing the subtree-minimum augmentation).
func (p *Planner) minTimeGE(request int64) int32 {
	best := noPoint
	n := p.et.Root()
	for n != rbtree.None {
		i := p.et.Item(n)
		pt := &p.pts[i]
		if pt.remaining >= request {
			// This node and its whole right subtree satisfy the
			// request: the right subtree's earliest time is a
			// single augmented lookup (RIGHTET in the paper).
			if best == noPoint || pt.at < p.pts[best].at {
				best = i
			}
			if r := p.et.Right(n); r != rbtree.None {
				if m := p.pts[p.et.Item(r)].subtreeMin; best == noPoint || p.pts[m].at < p.pts[best].at {
					best = m
				}
			}
			n = p.et.Left(n) // earlier times may hide among smaller remainders
		} else {
			n = p.et.Right(n)
		}
	}
	return best
}

// nextPointGE returns the earliest scheduled point strictly after `after`
// whose remaining capacity is at least request, or noPoint. It descends the
// SP tree pruning subtrees by the max-remaining and max-time augmentations,
// so each call is O(log N) — the candidate iterator behind AvailTimeFirst
// and AvailPointTimeAfter. (flux-sched iterates by temporarily unlinking
// ET-tree nodes; the augmented search visits the same candidates without
// mutating the trees.)
func (p *Planner) nextPointGE(after, request int64) int32 {
	return p.nextPointGEAt(p.sp.Root(), after, request)
}

func (p *Planner) nextPointGEAt(n int32, after, request int64) int32 {
	if n == rbtree.None {
		return noPoint
	}
	i := p.sp.Item(n)
	pt := &p.pts[i]
	if pt.spMaxRemaining < request || pt.spMaxAt <= after {
		return noPoint
	}
	if pt.at > after {
		if r := p.nextPointGEAt(p.sp.Left(n), after, request); r != noPoint {
			return r
		}
		if p.pts[i].remaining >= request {
			return i
		}
	}
	return p.nextPointGEAt(p.sp.Right(n), after, request)
}

// AvailTimeFirst returns the earliest time t >= at such that request units
// are available throughout [t, t+duration). It first tries at itself;
// afterwards the earliest candidate comes from the ET tree (paper
// Algorithm 1) and subsequent candidates — points that qualify on
// remaining capacity but fail the span check (SPANOK) — from the SP
// tree's augmented time-filtered search.
func (p *Planner) AvailTimeFirst(at, duration, request int64) (int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
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
	if p.canFit(at, duration, request) {
		return at, nil
	}
	// First candidate via Algorithm 1 (FINDEARLIESTAT on the ET tree).
	pt := p.minTimeGE(request)
	for pt != noPoint {
		t := p.pts[pt].at
		if t > at {
			if t+duration > p.end() {
				// Candidates arrive in increasing time order;
				// all later ones overflow the horizon too.
				return -1, ErrNoSpace
			}
			if p.canFit(t, duration, request) {
				return t, nil
			}
		}
		pt = p.nextPointGE(max64(t, at), request)
	}
	return -1, ErrNoSpace
}

// AvailPointTimeAfter returns the earliest scheduled-point time strictly
// greater than after at which request units are available throughout the
// following duration. Unlike AvailTimeFirst it never returns `after`
// itself, which makes it the candidate-time iterator for reservations:
// repeated calls with the previous result walk distinct availability
// change points (paper §3.4, Figure 2).
func (p *Planner) AvailPointTimeAfter(after, duration, request int64) (int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
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
	t := after
	for {
		pt := p.nextPointGE(t, request)
		if pt == noPoint {
			return -1, ErrNoSpace
		}
		at := p.pts[pt].at
		if at+duration > p.end() {
			return -1, ErrNoSpace
		}
		if p.canFit(at, duration, request) {
			return at, nil
		}
		t = at
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// AddSpan plans request units during [start, start+duration) and returns
// the span ID. It fails with ErrNoSpace if the window cannot hold the
// request.
func (p *Planner) AddSpan(start, duration, request int64) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if duration <= 0 || request <= 0 {
		return -1, fmt.Errorf("%w: duration=%d request=%d", ErrInvalid, duration, request)
	}
	avail, err := p.availDuring(start, duration)
	if err != nil {
		return -1, err
	}
	if avail < request {
		return -1, fmt.Errorf("%w: want %d, have %d in [%d,%d)", ErrNoSpace, request, avail, start, start+duration)
	}
	p.materialize()
	p1 := p.getOrCreatePoint(start)
	p2 := p.getOrCreatePoint(start + duration)
	p.pts[p1].refCount++
	p.pts[p2].refCount++
	for n := p.pts[p1].spNode; n != rbtree.None; {
		i := p.sp.Item(n)
		if p.pts[i].at >= start+duration {
			break
		}
		n = p.sp.Next(n) // advance before reposition re-links the node
		p.pts[i].scheduled += request
		p.pts[i].remaining -= request
		p.reposition(i)
	}
	id := p.nextSpanID
	p.nextSpanID++
	p.spans = append(p.spans, Span{ID: id, Start: start, Last: start + duration, Planned: request})
	return id, nil
}

// RemoveSpan unplans the span with the given ID, releasing its resources
// and garbage-collecting boundary points no span references anymore. When
// the last span goes, the slab calendar is demoted back to flat.
func (p *Planner) RemoveSpan(id int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	start := p.floorPoint(s.Start)
	boundary := [2]int32{noPoint, noPoint}
	for n := p.pts[start].spNode; n != rbtree.None; {
		i := p.sp.Item(n)
		at := p.pts[i].at
		if at > s.Last {
			break
		}
		n = p.sp.Next(n) // advance before any mutation of the point
		if at == s.Start {
			p.pts[i].refCount--
			boundary[0] = i
		}
		if at == s.Last {
			p.pts[i].refCount--
			boundary[1] = i
			break
		}
		if at >= s.Start {
			p.pts[i].scheduled -= s.Planned
			p.pts[i].remaining += s.Planned
			p.reposition(i)
		}
	}
	for _, i := range boundary {
		if i != noPoint && p.pts[i].refCount <= 0 && p.pts[i].at != p.base {
			p.dropPoint(i)
		}
	}
	return nil
}

// Update grows or shrinks the pool by delta units, applied uniformly across
// the whole horizon. Shrinking fails with ErrNoSpace if any point would go
// negative.
func (p *Planner) Update(delta int64) error {
	if delta == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active() {
		if p.total+delta < 0 {
			return fmt.Errorf("%w: shrink by %d leaves point %d negative", ErrNoSpace, -delta, p.base)
		}
		p.total += delta
		return nil
	}
	if delta < 0 {
		for n := p.sp.Min(); n != rbtree.None; n = p.sp.Next(n) {
			if pt := &p.pts[p.sp.Item(n)]; pt.remaining+delta < 0 {
				return fmt.Errorf("%w: shrink by %d leaves point %d negative", ErrNoSpace, -delta, pt.at)
			}
		}
	}
	p.total += delta
	for n := p.sp.Min(); n != rbtree.None; {
		i := p.sp.Item(n)
		n = p.sp.Next(n) // advance before reposition re-links the node
		p.pts[i].remaining += delta
		p.reposition(i)
	}
	return nil
}

// Points invokes fn for every scheduled point in time order with that
// point's time and available amount, stopping early if fn returns false.
func (p *Planner) Points(fn func(at, avail int64) bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.active() {
		fn(p.base, p.total)
		return
	}
	for n := p.sp.Min(); n != rbtree.None; n = p.sp.Next(n) {
		pt := &p.pts[p.sp.Item(n)]
		if !fn(pt.at, pt.remaining) {
			return
		}
	}
}

// Spans invokes fn for every live span in ascending ID order, stopping
// early if fn returns false.
func (p *Planner) Spans(fn func(s Span) bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, s := range p.spans {
		if !fn(s) {
			return
		}
	}
}

// Utilization returns the fraction of unit-seconds in use over [from, to):
// the integral of scheduled capacity divided by total * (to - from).
func (p *Planner) Utilization(from, to int64) (float64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
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
	cur := p.floorPoint(from)
	curAt := from
	for n := p.sp.Next(p.pts[cur].spNode); ; n = p.sp.Next(n) {
		segEnd := to
		next := noPoint
		if n != rbtree.None {
			next = p.sp.Item(n)
			if p.pts[next].at < to {
				segEnd = p.pts[next].at
			}
		}
		used += p.pts[cur].scheduled * (segEnd - curAt)
		if next == noPoint || p.pts[next].at >= to {
			break
		}
		cur, curAt = next, p.pts[next].at
	}
	return float64(used) / float64(p.total*(to-from)), nil
}
