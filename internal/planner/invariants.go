package planner

import (
	"fmt"

	"fluxion/internal/rbtree"
)

// CheckInvariants validates the planner's internal consistency: every
// scheduled point's amount (the prefix sum of the deltas) is exactly what
// the live spans imply and never exceeds the pool, and the SP-tree
// aggregates (sum, left-subtree sum, min/max prefix, latest time) are
// correct. It is the oracle behind the concurrency stress tests — after any
// interleaving of AddSpan/RemoveSpan/Update and queries, a planner must
// still satisfy all of these.
func (p *Planner) CheckInvariants() error {
	p.mu.RLock()
	defer p.mu.RUnlock()

	if !p.active() {
		// Flat planner: no slab calendar may exist while spans are live.
		if len(p.spans) != 0 {
			return fmt.Errorf("planner: flat (no calendar) but %d spans live", len(p.spans))
		}
		if p.total < 0 {
			return fmt.Errorf("planner: negative total %d", p.total)
		}
		return nil
	}

	// Walk the SP tree in time order, recomputing the expected profile
	// from the span set.
	prev := int64(-1 << 62)
	sawBase := false
	var sched int64
	for n := p.sp.Min(); n != rbtree.None; n = p.sp.Next(n) {
		pt := &p.pts[p.sp.Item(n)]
		if pt.at <= prev {
			return fmt.Errorf("planner: SP points out of order (%d after %d)", pt.at, prev)
		}
		prev = pt.at
		if pt.at == p.base {
			sawBase = true
		}
		sched += pt.delta
		if sched > p.total {
			return fmt.Errorf("planner: point %d double-booked: scheduled %d of %d", pt.at, sched, p.total)
		}
		var want int64
		var bounds int32
		for _, s := range p.spans {
			if s.Start <= pt.at && pt.at < s.Last {
				want += s.Planned
			}
			if s.Start == pt.at || s.Last == pt.at {
				bounds++
			}
		}
		if sched != want {
			return fmt.Errorf("planner: point %d: scheduled %d but spans imply %d", pt.at, sched, want)
		}
		if pt.refCount != bounds {
			return fmt.Errorf("planner: point %d: refCount %d but %d span boundaries", pt.at, pt.refCount, bounds)
		}
		if pt.at != p.base && bounds == 0 {
			return fmt.Errorf("planner: point %d is unreferenced garbage", pt.at)
		}
	}
	if !sawBase {
		return fmt.Errorf("planner: base point %d missing", p.base)
	}

	// Spans are in ascending ID order (what Span/RemoveSpan binary-search
	// on) and their boundaries exist as scheduled points.
	for i, s := range p.spans {
		id := s.ID
		if id >= p.nextSpanID || (i > 0 && id <= p.spans[i-1].ID) {
			return fmt.Errorf("planner: span %d out of ID order at index %d", id, i)
		}
		if f, _ := p.floor(s.Start); f == noPoint || p.pts[f].at != s.Start {
			return fmt.Errorf("planner: span %d start %d has no scheduled point", id, s.Start)
		}
		if f, _ := p.floor(s.Last); f == noPoint || p.pts[f].at != s.Last {
			return fmt.Errorf("planner: span %d end %d has no scheduled point", id, s.Last)
		}
	}

	_, err := p.checkSPAug(p.sp.Root())
	return err
}

// checkSPAug verifies the aggregates of n's subtree against a recomputation
// from its children and returns the subtree's point (nil for rbtree.None).
func (p *Planner) checkSPAug(n int32) (*schedPoint, error) {
	if n == rbtree.None {
		return nil, nil
	}
	l, err := p.checkSPAug(p.sp.Left(n))
	if err != nil {
		return nil, err
	}
	r, err := p.checkSPAug(p.sp.Right(n))
	if err != nil {
		return nil, err
	}
	pt := &p.pts[p.sp.Item(n)]
	var leftSum int64
	maxPre, minPre := pt.delta, pt.delta
	if l != nil {
		leftSum = l.sum
		maxPre = max(l.maxPre, leftSum+pt.delta)
		minPre = min(l.minPre, leftSum+pt.delta)
	}
	sum, maxAt := leftSum+pt.delta, pt.at
	if r != nil {
		maxPre = max(maxPre, sum+r.maxPre)
		minPre = min(minPre, sum+r.minPre)
		sum += r.sum
		maxAt = r.maxAt
	}
	if pt.sum != sum || pt.leftSum != leftSum || pt.maxPre != maxPre || pt.minPre != minPre || pt.maxAt != maxAt {
		return nil, fmt.Errorf("planner: SP point %d: aug (sum %d, left %d, pre [%d,%d], at %d), want (%d, %d, [%d,%d], %d)",
			pt.at, pt.sum, pt.leftSum, pt.minPre, pt.maxPre, pt.maxAt, sum, leftSum, minPre, maxPre, maxAt)
	}
	return pt, nil
}

// CheckInvariants validates every member planner.
func (m *Multi) CheckInvariants() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, id := range m.ids {
		if err := m.byID[id].CheckInvariants(); err != nil {
			return fmt.Errorf("multi member %d: %w", id, err)
		}
	}
	return nil
}
