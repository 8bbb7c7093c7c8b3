package planner

import (
	"fmt"

	"fluxion/internal/rbtree"
)

// CheckInvariants validates the planner's internal consistency: the SP and
// ET trees agree, every scheduled point's amounts are exactly what the live
// spans imply, and the tree augmentations (ET subtree-minimum time, SP
// max-remaining/max-time) are correct. It is the oracle behind the
// concurrency stress tests — after any interleaving of AddSpan/RemoveSpan
// and queries, a planner must still satisfy all of these.
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

	if p.sp.Len() != p.et.Len() {
		return fmt.Errorf("planner: SP tree has %d points, ET tree %d", p.sp.Len(), p.et.Len())
	}

	// Walk the SP tree in time order, recomputing the expected profile
	// from the span set.
	prev := int64(-1 << 62)
	sawBase := false
	for n := p.sp.Min(); n != rbtree.None; n = p.sp.Next(n) {
		pt := &p.pts[p.sp.Item(n)]
		if pt.at <= prev {
			return fmt.Errorf("planner: SP points out of order (%d after %d)", pt.at, prev)
		}
		prev = pt.at
		if pt.at == p.base {
			sawBase = true
		}
		if pt.scheduled+pt.remaining != p.total {
			return fmt.Errorf("planner: point %d: scheduled %d + remaining %d != total %d",
				pt.at, pt.scheduled, pt.remaining, p.total)
		}
		if pt.remaining < 0 {
			return fmt.Errorf("planner: point %d double-booked: remaining %d", pt.at, pt.remaining)
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
		if pt.scheduled != want {
			return fmt.Errorf("planner: point %d: scheduled %d but spans imply %d", pt.at, pt.scheduled, want)
		}
		if pt.refCount != bounds {
			return fmt.Errorf("planner: point %d: refCount %d but %d span boundaries", pt.at, pt.refCount, bounds)
		}
		if pt.at != p.base && bounds == 0 {
			return fmt.Errorf("planner: point %d is unreferenced garbage", pt.at)
		}
		if !pt.inET {
			return fmt.Errorf("planner: point %d missing from ET tree", pt.at)
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
		if f := p.floorPoint(s.Start); f == noPoint || p.pts[f].at != s.Start {
			return fmt.Errorf("planner: span %d start %d has no scheduled point", id, s.Start)
		}
		if f := p.floorPoint(s.Last); f == noPoint || p.pts[f].at != s.Last {
			return fmt.Errorf("planner: span %d end %d has no scheduled point", id, s.Last)
		}
	}

	if err := p.checkETAug(p.et.Root()); err != nil {
		return err
	}
	return p.checkSPAug(p.sp.Root())
}

// checkETAug verifies the subtree-minimum-time augmentation of the ET tree.
func (p *Planner) checkETAug(n int32) error {
	if n == rbtree.None {
		return nil
	}
	i := p.et.Item(n)
	min := i
	for _, c := range [2]int32{p.et.Left(n), p.et.Right(n)} {
		if c == rbtree.None {
			continue
		}
		if err := p.checkETAug(c); err != nil {
			return err
		}
		if m := p.pts[p.et.Item(c)].subtreeMin; p.pts[m].at < p.pts[min].at {
			min = m
		}
	}
	if p.pts[i].subtreeMin != min {
		return fmt.Errorf("planner: ET point %d: subtreeMin %d, want %d",
			p.pts[i].at, p.pts[p.pts[i].subtreeMin].at, p.pts[min].at)
	}
	return nil
}

// checkSPAug verifies the max-remaining / max-time augmentations of the SP
// tree.
func (p *Planner) checkSPAug(n int32) error {
	if n == rbtree.None {
		return nil
	}
	pt := &p.pts[p.sp.Item(n)]
	maxRem, maxAt := pt.remaining, pt.at
	for _, c := range [2]int32{p.sp.Left(n), p.sp.Right(n)} {
		if c == rbtree.None {
			continue
		}
		if err := p.checkSPAug(c); err != nil {
			return err
		}
		ci := &p.pts[p.sp.Item(c)]
		if ci.spMaxRemaining > maxRem {
			maxRem = ci.spMaxRemaining
		}
		if ci.spMaxAt > maxAt {
			maxAt = ci.spMaxAt
		}
	}
	if pt.spMaxRemaining != maxRem || pt.spMaxAt != maxAt {
		return fmt.Errorf("planner: SP point %d: aug (%d,%d), want (%d,%d)",
			pt.at, pt.spMaxRemaining, pt.spMaxAt, maxRem, maxAt)
	}
	return nil
}

// CheckInvariants validates every member planner.
func (m *Multi) CheckInvariants() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, rt := range m.types {
		if err := m.byType[rt].CheckInvariants(); err != nil {
			return fmt.Errorf("multi member %q: %w", rt, err)
		}
	}
	// Every multi-span's members must still exist in their planners.
	for id, members := range m.spans {
		for _, ms := range members {
			if _, err := m.byType[ms.rt].Span(ms.id); err != nil {
				return fmt.Errorf("multi-span %d member %q/%d: %w", id, ms.rt, ms.id, err)
			}
		}
	}
	return nil
}
