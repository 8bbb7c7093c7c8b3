package planner

import "fmt"

// CheckInvariants validates the planner's internal consistency: every
// scheduled point's amount (the prefix sum of the deltas) is exactly what
// the live spans imply and never exceeds the pool, the SP tree is a valid
// red-black tree over the slab, and its aggregates (sum, min/max prefix)
// are correct. It is the oracle behind the concurrency stress tests —
// after any interleaving of AddSpan/RemoveSpan/Update and queries, a
// planner must still satisfy all of these.
func (p *Planner) CheckInvariants() error {
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
	if err := p.checkTree(); err != nil {
		return err
	}

	// Walk the SP tree in time order, recomputing the expected profile
	// from the span set.
	prev := int64(-1 << 62)
	sawBase := false
	var sched int64
	for i := p.first(); i != noPoint; i = p.next(i) {
		pt := &p.pts[i]
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
	return nil
}

// checkTree validates the SP tree's shape over the slab: the sentinel is
// clear, the root is black, parent links agree with child links, no red
// point has a red child, every root-to-leaf path has the same black
// height, the aggregates match their children, n counts the tree's points
// and every other slot but the sentinel is on the freelist.
func (p *Planner) checkTree() error {
	if s := p.pts[noPoint]; s != (schedPoint{}) {
		return fmt.Errorf("planner: sentinel not clear: %+v", s)
	}
	if p.pts[p.root].red || p.pts[p.root].parent != noPoint {
		return fmt.Errorf("planner: root %d is red or has a parent", p.root)
	}
	count := 0
	if _, err := p.checkSubtree(p.root, &count); err != nil {
		return err
	}
	if count != int(p.n) {
		return fmt.Errorf("planner: %d points in the tree, n = %d", count, p.n)
	}
	free := 0
	for f := p.free; f != noPoint; f = p.pts[f].left {
		if free++; free > len(p.pts) {
			return fmt.Errorf("planner: freelist cycles")
		}
	}
	if free+count+1 != len(p.pts) {
		return fmt.Errorf("planner: %d free + %d live + sentinel != %d slots", free, count, len(p.pts))
	}
	return nil
}

// checkSubtree validates the subtree rooted at i (see checkTree), counts its
// points into *count and returns its black height.
func (p *Planner) checkSubtree(i int32, count *int) (int, error) {
	if i == noPoint {
		return 1, nil
	}
	if *count++; *count > len(p.pts) {
		return 0, fmt.Errorf("planner: SP tree cycles")
	}
	pt := &p.pts[i]
	for _, c := range [2]int32{pt.left, pt.right} {
		if c == noPoint {
			continue
		}
		if p.pts[c].parent != i {
			return 0, fmt.Errorf("planner: point %d: child %d has parent %d", pt.at, p.pts[c].at, p.pts[c].parent)
		}
		if pt.red && p.pts[c].red {
			return 0, fmt.Errorf("planner: red point %d has red child %d", pt.at, p.pts[c].at)
		}
	}
	lh, err := p.checkSubtree(pt.left, count)
	if err != nil {
		return 0, err
	}
	rh, err := p.checkSubtree(pt.right, count)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("planner: point %d: black heights %d left, %d right", pt.at, lh, rh)
	}
	if sum, maxPre, minPre := p.aggregates(i); pt.sum != sum || pt.maxPre != maxPre || pt.minPre != minPre {
		return 0, fmt.Errorf("planner: SP point %d: aug (sum %d, pre [%d,%d]), want (%d, [%d,%d])",
			pt.at, pt.sum, pt.minPre, pt.maxPre, sum, minPre, maxPre)
	}
	if !pt.red {
		lh++
	}
	return lh, nil
}

// CheckInvariants validates every member planner.
func (m *Multi) CheckInvariants() error {
	for _, id := range m.ids {
		if err := m.byID[id].CheckInvariants(); err != nil {
			return fmt.Errorf("multi member %d: %w", id, err)
		}
	}
	return nil
}
