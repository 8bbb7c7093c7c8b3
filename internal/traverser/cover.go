package traverser

import (
	"fmt"

	"fluxion/internal/planner"
	"fluxion/internal/resgraph"
)

// This file implements covered claims. A job that takes a structural
// vertex whole (Units == Size) and selects every unit beneath it — a
// whole-node job takes the node and all its cores — used to plan one span
// per selected vertex: 37 on a Quartz node, 36 of them on cores no match
// can read while the node is held. install now leaves those out: an entry
// strictly beneath such a covering entry of the same allocation is
// covered and plans no vertex span (VertexAlloc.span stays 0). Filters
// are untouched: SDFU still counts every selected unit, so every pruning
// filter stays the sum of the allocation table over its subtree.
//
// Soundness: a containment traversal reaches a covered vertex only
// through its covering vertex, and any window that overlaps the claim
// reads the covering vertex with 0 units free, so collect prunes it and
// tryCandidate rejects it before descending. A window that does not
// overlap the claim must see the covered vertex free, and it does. Only
// containment traversers cover (overlay subsystems may reach a vertex
// along other paths), and the traverser is its graph's single writer.
//
// The paths that read or write covered vertices without a match in front
// of them keep today's behaviour:
//   - Reinstall did not just read the vertices it installs: before it
//     writes anything it exposes the claims of other allocations over the
//     grants' ancestors (uncover) and requires every covered vertex to be
//     free over the window, so a conflicting grant set still fails
//     atomically;
//   - Release uncovers the allocation before it edits it;
//   - Detach refuses a subtree holding a covered entry (ErrBusy), as the
//     graph refuses one holding a span;
//   - affectedJobs tests a covering vertex both ways (inside the failed
//     subtree, or above it) instead of walking the entries it covers.

// covered reports whether va is a covered entry of an installed
// allocation: it holds units but no vertex span (span IDs start at 1).
func (va *VertexAlloc) covered() bool { return va.Units > 0 && va.span == 0 }

// coverScratch is install's working memory for finding covered entries.
// Its per-vertex arrays are indexed by UniqID and stamped like
// matchScratch's, so reuse needs no clearing.
type coverScratch struct {
	stamp uint32
	sumAt []uint32 // sum[uid] holds the allocation's units on uid when sumAt[uid] == stamp
	sum   []int64
	under []uint32 // uid lies strictly beneath a covering entry when under[uid] == stamp
	// off covers nothing; the differential tests compare against it.
	off bool
}

// begin readies the scratch for an allocation over vertices with UniqID
// in [0, n).
func (c *coverScratch) begin(n int64) {
	c.stamp++
	if c.stamp == 0 { // uint32 wrap: stale stamps could read as live
		clear(c.sumAt)
		clear(c.under)
		c.stamp = 1
	}
	if int64(len(c.sum)) < n {
		c.sumAt, c.sum, c.under = make([]uint32, n), make([]int64, n), make([]uint32, n)
	}
}

// scan marks the vertices strictly beneath every covering entry of alloc
// and reports whether it marked any; isCovered then answers per vertex
// until the next scan.
func (c *coverScratch) scan(t *Traverser, alloc *Allocation) bool {
	if c.off || !t.containment {
		return false
	}
	c.begin(t.g.UniqBound())
	for _, va := range alloc.Vertices {
		if va.Units > 0 {
			if uid := va.V.UniqID; c.sumAt[uid] != c.stamp {
				c.sumAt[uid], c.sum[uid] = c.stamp, va.Units
			} else {
				c.sum[uid] += va.Units
			}
		}
	}
	// Backwards: a match logs a vertex after everything selected beneath
	// it, so a covering entry is met before the entries it covers, which
	// are then skipped at a glance.
	marked := false
	for i := len(alloc.Vertices) - 1; i >= 0; i-- {
		va := &alloc.Vertices[i]
		v := va.V
		if va.Units == 0 || va.Units != v.Size || c.isCovered(v) || c.units(v) != v.Size {
			continue
		}
		if kids := v.Kids(resgraph.Containment); len(kids) > 0 && c.whole(kids) {
			c.mark(kids)
			marked = true
		}
	}
	return marked
}

// units returns the allocation's units on v.
func (c *coverScratch) units(v *resgraph.Vertex) int64 {
	if c.sumAt[v.UniqID] != c.stamp {
		return 0
	}
	return c.sum[v.UniqID]
}

// whole reports whether the allocation takes every vertex in the
// subtrees of kids whole.
func (c *coverScratch) whole(kids []*resgraph.Vertex) bool {
	for _, k := range kids {
		if c.units(k) != k.Size || !c.whole(k.Kids(resgraph.Containment)) {
			return false
		}
	}
	return true
}

// mark stamps every vertex in the subtrees of kids as covered.
func (c *coverScratch) mark(kids []*resgraph.Vertex) {
	for _, k := range kids {
		c.under[k.UniqID] = c.stamp
		c.mark(k.Kids(resgraph.Containment))
	}
}

// isCovered reports whether the last scan marked v.
func (c *coverScratch) isCovered(v *resgraph.Vertex) bool { return c.under[v.UniqID] == c.stamp }

// checkReinstall is Reinstall's guard, run after scan and before install
// writes anything. A match has just read every vertex it selected;
// Reinstall has not, and the planners of vertices beneath another
// allocation's covering entry read free. So every ancestor of a consuming
// grant that is busy over the window has the claims over it uncovered
// first; then a conflict on a planned vertex fails its AddSpan as it
// always did, and one on a covered vertex fails here.
func (t *Traverser) checkReinstall(alloc *Allocation, covers bool) error {
	var last *resgraph.Vertex
	for _, va := range alloc.Vertices {
		p := va.V.Parent()
		if va.Units == 0 || p == last {
			continue // a sibling already walked the same ancestors
		}
		last = p
		for a := p; a != nil; a = a.Parent() {
			if avail, err := a.Planner().AvailDuring(alloc.At, alloc.Duration); err == nil && avail < a.Planner().Total() {
				if err := t.uncoverAt(a, alloc.At, alloc.Duration); err != nil {
					return err
				}
			}
		}
	}
	if !covers {
		return nil
	}
	for _, va := range alloc.Vertices {
		if va.Units == 0 || !t.cover.isCovered(va.V) {
			continue
		}
		if avail, err := va.V.Planner().AvailDuring(alloc.At, alloc.Duration); err != nil || avail < va.V.Size {
			return fmt.Errorf("%s: %w: not free over [%d,%d)", va.V.Path(), planner.ErrNoSpace, alloc.At, alloc.At+alloc.Duration)
		}
	}
	return nil
}

// uncoverAt uncovers every allocation holding a span on a over a window
// that overlaps [at, at+dur).
func (t *Traverser) uncoverAt(a *resgraph.Vertex, at, dur int64) error {
	for _, o := range t.allocs {
		if o.At >= at+dur || at >= o.At+o.Duration {
			continue
		}
		for i := range o.Vertices {
			if va := &o.Vertices[i]; va.V == a && va.span > 0 {
				if err := t.uncover(o); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// uncover plans a real span for every covered entry of alloc, which then
// reads exactly as it would had it never been covered. It changes no
// availability any reader can see (the covering vertex hid these
// vertices), so it marks nothing dirty and publishes nothing. On error the
// entries already uncovered keep their spans: a partly covered allocation
// is as valid as a covered one.
func (t *Traverser) uncover(alloc *Allocation) error {
	for i := range alloc.Vertices {
		va := &alloc.Vertices[i]
		if !va.covered() {
			continue
		}
		id, err := va.V.Planner().AddSpan(alloc.At, alloc.Duration, va.Units)
		if err != nil {
			return fmt.Errorf("traverser: uncover %s: %w", va.V.Path(), err)
		}
		va.span = id
		t.idle.rekey(va.V)
	}
	if !alloc.idleEnd && t.idle.holds(alloc) {
		t.idle.addEnd(alloc)
	}
	return nil
}

// coveredIn reports whether alloc has a covered entry in root's subtree.
func (a *Allocation) coveredIn(root *resgraph.Vertex) bool {
	for i := range a.Vertices {
		if va := &a.Vertices[i]; va.covered() && va.V.InSubtreeOf(root) {
			return true
		}
	}
	return false
}

// CheckPlanners reports whether the planners and pruning filters agree
// with the allocation table (a test hook; nil when they do). It rebuilds,
// from the table alone, the units every vertex holds at instant at, and
// requires that:
//   - every vertex planner holds one span per uncovered consuming entry
//     on it, and at `at` exactly the units of those entries;
//   - every covered entry lies strictly beneath a whole, planned entry of
//     its own allocation;
//   - every filter member holds one span per filter span recorded for
//     it, at `at` exactly the units the table holds of its type strictly
//     beneath its owner (covered entries included), and in total the
//     in-service capacity of that type there.
//
// (An instant, not a window: the minimum of an aggregate over a window is
// not the sum of the minimums of its parts.)
func (t *Traverser) CheckPlanners(at int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type member struct {
		owner *resgraph.Vertex
		id    int32
	}
	spans := make(map[*resgraph.Vertex]int)
	busy := make(map[*resgraph.Vertex]int64)
	fspans := make(map[member]int)
	fbusy := make(map[member]int64)
	for _, a := range t.allocs {
		live := a.At <= at && at < a.At+a.Duration
		whole := make(map[*resgraph.Vertex]bool)
		for _, va := range a.Vertices {
			if va.span > 0 && va.Units == va.V.Size {
				whole[va.V] = true
			}
		}
		for i := range a.Vertices {
			va := &a.Vertices[i]
			if va.Units == 0 {
				continue
			}
			if va.covered() {
				p := va.V.Parent()
				for p != nil && !whole[p] {
					p = p.Parent()
				}
				if p == nil {
					return fmt.Errorf("job %d: %s is covered by no whole claim of its own", a.JobID, va.V.Path())
				}
			} else {
				spans[va.V]++
				if live {
					busy[va.V] += va.Units
				}
			}
			if !live {
				continue
			}
			for p := va.V.Parent(); p != nil; p = p.Parent() {
				if p.Filter().PlannerByID(va.V.TypeID) != nil {
					fbusy[member{p, va.V.TypeID}] += va.Units
				}
			}
		}
		for _, fs := range a.filterSpans {
			fspans[member{fs.owner, fs.typeID}]++
		}
	}
	up := make(map[member]int64)
	for _, v := range t.g.Vertices() {
		if v.Path() == "" || v.Status != resgraph.StatusUp {
			continue
		}
		for p := v.Parent(); p != nil; p = p.Parent() {
			if p.Filter().PlannerByID(v.TypeID) != nil {
				up[member{p, v.TypeID}] += v.Size
			}
		}
	}
	for _, v := range t.g.Vertices() {
		p := v.Planner()
		if p == nil {
			continue
		}
		if err := checkPlanner(p, spans[v], busy[v], at); err != nil {
			return fmt.Errorf("%s planner: %w", v.Path(), err)
		}
		f := v.Filter()
		if f == nil || v.Path() == "" {
			continue
		}
		for _, id := range f.IDs() {
			m := member{v, id}
			fp := f.PlannerByID(id)
			if err := checkPlanner(fp, fspans[m], fbusy[m], at); err != nil {
				return fmt.Errorf("%s filter %s: %w", v.Path(), t.g.Types().Name(id), err)
			}
			if fp.Total() != up[m] {
				return fmt.Errorf("%s filter %s: total %d, in-service capacity beneath %d", v.Path(), t.g.Types().Name(id), fp.Total(), up[m])
			}
		}
	}
	return nil
}

// checkPlanner compares one planner with what the table plans on it.
func checkPlanner(p *planner.Planner, spans int, busy, at int64) error {
	if n := p.SpanCount(); n != spans {
		return fmt.Errorf("%d spans, the table plans %d", n, spans)
	}
	avail, err := p.AvailDuring(at, 1)
	if err != nil {
		return err
	}
	if got := p.Total() - avail; got != busy {
		return fmt.Errorf("%d units busy at %d, the table holds %d", got, at, busy)
	}
	return nil
}
