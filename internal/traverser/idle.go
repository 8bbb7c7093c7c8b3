package traverser

import (
	"fmt"
	"math"
	"slices"

	"fluxion/internal/jobspec"
	"fluxion/internal/planner"
	"fluxion/internal/resgraph"
)

// This file implements window-exact admission. The root pruning filter
// holds aggregates, and an aggregate cannot tell "N vertices free at every
// instant of the window" from "N vertices each free for the whole window":
// vertices that running jobs free later in the window stand in for those
// a reservation takes before it ends. A whole-vertex request that fails
// for that reason used to walk the machine to find out.
//
// A type is indexed from the first attempt that needs its vertices whole,
// when the root filter tracks it (node on Quartz). The index keys every
// vertex of an indexed type by the start of its earliest planner span
// (idleNone when it has none, the graph base while it is down) and keeps
// a count calendar of the finite keys. While no installed allocation
// touching an indexed vertex has ended by `at`, every such span that
// starts before at+dur overlaps [at, at+dur), so the vertices idle over
// the whole window are exactly those keyed at or after at+dur: one prefix
// count. A second calendar holds the end of every
// allocation with a span on an indexed vertex; when one has ended by `at`
// (a future-time reservation probe, or a clock moved onto an event
// instant before its completions ran) the count is not exact and is
// skipped.
//
// The count is a necessary condition, never a sufficient one: a vertex it
// calls idle may still be refused by the walk (a shared job holding its
// leaves, a down ancestor, a whole claim above it that covers it without a
// span of its own: cover.go), but a vertex the walk could take whole is
// up and free of spans over the window, so it is counted. That holds only
// while the keys reflect every span and status bit, so every writer of
// either keeps them: install (once it succeeded: its rollback restores
// the spans the keys were taken from), remove and Release rekey the
// vertices whose spans they edit, MarkDown and MarkUp rekey the subtree's
// pre-order range, and Attach and Detach insert or delete theirs. A status flip or topology
// change made on the graph directly moves Graph.StatusGen or
// Graph.StructVersion past the generations the index was built at, and
// the next query rebuilds it first.

// idleNone keys a vertex with no span: idle over every window.
const idleNone = math.MaxInt64

// idleIndex is the traverser's window-exact admission index; every method
// runs under the traverser's writer lock.
type idleIndex struct {
	base   int64
	types  []idleType // one per indexed type
	byType []int32    // type ID -> index into types, -1 when unindexed
	// ends holds one key per installed allocation with a span on an
	// indexed vertex (Allocation.idleEnd), at its end.
	ends planner.Counts
	// statusGen and structGen are the graph generations the keys reflect.
	statusGen, structGen uint64
	// moves is rekeyAll's buffer of merged calendar edits.
	moves []keyMove
	// off disables the count, and noSelect index-backed selection; the
	// differential tests compare against each.
	off, noSelect bool
}

// keyMove is a pending calendar edit: n keys of type it at time t.
type keyMove struct {
	it   *idleType
	t, n int64
}

// maxKeyMoves bounds the edits rekeyAll merges; past it, edits apply at once.
const maxKeyMoves = 8

// idleType is the index of one type: its vertices in containment
// pre-order, each one's pre-order label (searched without touching the
// vertices) and key, the calendar of the finite keys, and a max tree over
// the keys (next).
type idleType struct {
	id    int32
	verts []*resgraph.Vertex
	ins   []int32
	keys  []int64
	cal   planner.Counts
	// tree holds maxima over keys: leaf i at len(tree)/2+i (padding at
	// math.MinInt64), node p the max of 2p and 2p+1, tree[0] unused.
	tree []int64
}

// index adds type id to the index, which then rebuilds: a type is indexed
// from the first query that needs its vertices whole, when the root filter
// tracks it. Requests take whole the vertices that host nested shapes, so
// these are interior types: on Quartz, 2 418 nodes of 89 506 vertices.
func (x *idleIndex) index(t *Traverser, id int32) {
	for int(id) >= len(x.byType) {
		x.byType = append(x.byType, -1)
	}
	x.byType[id] = int32(len(x.types))
	x.types = append(x.types, idleType{id: id})
	x.resync(t)
}

// rebuild recomputes every key and allocation end from the graph and the
// allocation table.
func (x *idleIndex) rebuild(t *Traverser) {
	x.base = t.g.Base()
	x.statusGen, x.structGen = t.g.StatusGen(), t.g.StructVersion()
	for i := range x.types {
		it := &x.types[i]
		it.verts, it.ins, it.keys = it.verts[:0], it.ins[:0], it.keys[:0]
		it.cal.Reset(x.base)
	}
	x.collect(t.root, func(it *idleType, v *resgraph.Vertex) {
		k := x.key(v)
		in, _ := v.TreeInterval()
		it.verts, it.ins, it.keys = append(it.verts, v), append(it.ins, in), append(it.keys, k)
		if k != idleNone {
			it.cal.Add(k, 1)
		}
	})
	for i := range x.types {
		x.types[i].build()
	}
	x.ends.Reset(x.base)
	for _, a := range t.allocs {
		if x.holds(a) {
			x.ends.Add(a.At+a.Duration, 1)
		}
	}
}

// resync rebuilds the index and marks the allocations whose ends it holds.
func (x *idleIndex) resync(t *Traverser) {
	x.rebuild(t)
	for _, a := range t.allocs {
		a.idleEnd = x.holds(a)
	}
}

// collect calls fn, in containment pre-order, for every indexed vertex
// strictly beneath v.
func (x *idleIndex) collect(v *resgraph.Vertex, fn func(*idleType, *resgraph.Vertex)) {
	for _, c := range v.Kids(resgraph.Containment) {
		if it := x.typeOf(c.TypeID); it != nil {
			fn(it, c)
		}
		x.collect(c, fn)
	}
}

// typeOf returns the index of type id, or nil when it is not indexed.
func (x *idleIndex) typeOf(id int32) *idleType {
	if id < 0 || int(id) >= len(x.byType) || x.byType[id] < 0 {
		return nil
	}
	return &x.types[x.byType[id]]
}

// key is v's key: the graph base while v is down, else the start of its
// earliest span, else idleNone.
func (x *idleIndex) key(v *resgraph.Vertex) int64 {
	if v.Status != resgraph.StatusUp {
		return x.base
	}
	if at, ok := v.Planner().FirstStart(); ok {
		return at
	}
	return idleNone
}

// set stores key k at position i, moving its calendar entry.
func (it *idleType) set(i int, k int64) {
	old := it.keys[i]
	if old == k {
		return
	}
	if old != idleNone {
		it.cal.Add(old, -1)
	}
	if k != idleNone {
		it.cal.Add(k, 1)
	}
	it.store(i, k)
}

// store writes key k at position i and the maxima above it.
func (it *idleType) store(i int, k int64) {
	it.keys[i] = k
	p := len(it.tree)/2 + i
	it.tree[p] = k
	for p > 1 {
		p /= 2
		it.tree[p] = max(it.tree[2*p], it.tree[2*p+1])
	}
}

// build lays the max tree out over the keys afresh.
func (it *idleType) build() {
	sz := 1
	for sz < len(it.keys) {
		sz *= 2
	}
	it.tree = slices.Grow(it.tree[:0], 2*sz)[:2*sz]
	copy(it.tree[sz:], it.keys)
	for p := sz + len(it.keys); p < 2*sz; p++ {
		it.tree[p] = math.MinInt64
	}
	for p := sz - 1; p >= 1; p-- {
		it.tree[p] = max(it.tree[2*p], it.tree[2*p+1])
	}
}

// next returns the first position at or after i whose key is at least t,
// or len(keys): up the tree to the first right sibling holding such a
// key, then down to its leftmost one, in O(log n).
func (it *idleType) next(i int, t int64) int {
	if i >= len(it.keys) {
		return len(it.keys)
	}
	sz := len(it.tree) / 2
	p := sz + i
	for it.tree[p] < t {
		for p&1 == 1 {
			p /= 2
		}
		if p == 0 {
			return len(it.keys)
		}
		p++
	}
	for p < sz {
		p *= 2
		if it.tree[p] < t {
			p++
		}
	}
	return p - sz
}

// find returns v's position, if v is indexed.
func (it *idleType) find(v *resgraph.Vertex) (int, bool) {
	in, _ := v.TreeInterval()
	i := it.search(in)
	return i, i < len(it.verts) && it.verts[i] == v
}

// search returns the first position whose vertex starts its pre-order
// interval at or after in.
func (it *idleType) search(in int32) int {
	i, _ := slices.BinarySearch(it.ins, in)
	return i
}

// relabel reloads the pre-order labels after Attach or Detach renumbered
// the tree (the order of the vertices is unchanged).
func (it *idleType) relabel() {
	for j, v := range it.verts {
		it.ins[j], _ = v.TreeInterval()
	}
}

// rekey recomputes v's key after its spans changed, in O(log n), and
// reports whether v's type is indexed.
func (x *idleIndex) rekey(v *resgraph.Vertex) bool {
	it := x.typeOf(v.TypeID)
	if it == nil {
		return false
	}
	if i, ok := it.find(v); ok {
		it.set(i, x.key(v))
	}
	return true
}

// rekeyAll rekeys the vertices holding spans of alloc, which were just
// added (added) or removed, and reports whether one of them is indexed;
// covered entries hold no span and key nothing. A span starting at
// alloc.At moves a key only to min(key, alloc.At) when added, and only a
// key equal to alloc.At when removed, so the planner is read in that case
// alone. The vertices of one allocation mostly move between the same two
// keys, so their calendar edits are merged: one per type and key.
func (x *idleIndex) rekeyAll(alloc *Allocation, added bool) bool {
	held := false
	for _, va := range alloc.Vertices {
		if va.span == 0 {
			continue
		}
		it := x.typeOf(va.V.TypeID)
		if it == nil {
			continue
		}
		held = true
		if i, ok := it.find(va.V); ok {
			old, k := it.keys[i], it.keys[i]
			switch {
			case added:
				k = min(old, alloc.At)
			case old == alloc.At:
				k = x.key(va.V)
			}
			if old != k {
				it.store(i, k)
				x.move(it, old, -1)
				x.move(it, k, 1)
			}
		}
	}
	for _, m := range x.moves {
		if m.n != 0 {
			m.it.cal.Add(m.t, m.n)
		}
	}
	x.moves = x.moves[:0]
	return held
}

// move records n keys entering (or leaving, n < 0) it's calendar at t
// for rekeyAll to apply. It merges into an earlier move at the same type
// and key, and applies the edit at once past a few distinct keys.
func (x *idleIndex) move(it *idleType, t, n int64) {
	if t == idleNone {
		return
	}
	for i := range x.moves {
		if m := &x.moves[i]; m.it == it && m.t == t {
			m.n += n
			return
		}
	}
	if len(x.moves) < maxKeyMoves {
		x.moves = append(x.moves, keyMove{it: it, t: t, n: n})
		return
	}
	it.cal.Add(t, n)
}

// holds reports whether alloc has a span on an indexed vertex.
func (x *idleIndex) holds(alloc *Allocation) bool {
	for _, va := range alloc.Vertices {
		if va.span > 0 && x.typeOf(va.V.TypeID) != nil {
			return true
		}
	}
	return false
}

// addEnd records the end of alloc, which now holds a span on an indexed
// vertex.
func (x *idleIndex) addEnd(alloc *Allocation) {
	alloc.idleEnd = true
	x.ends.Add(alloc.At+alloc.Duration, 1)
}

// dropEnd forgets the end of alloc once it holds no indexed vertex.
func (x *idleIndex) dropEnd(alloc *Allocation) {
	if alloc.idleEnd {
		alloc.idleEnd = false
		x.ends.Add(alloc.At+alloc.Duration, -1)
	}
}

// invalidate makes the next query rebuild the index (after a graph
// operation that failed part-way).
func (x *idleIndex) invalidate() { x.structGen = 0 }

// synced reports whether the keys reflect the graph's current status and
// topology generations.
func (x *idleIndex) synced(g *resgraph.Graph) bool {
	return x.statusGen == g.StatusGen() && x.structGen == g.StructVersion()
}

// statusChanged rekeys the indexed vertices in v's subtree — one pre-order
// range per type — after MarkDown or MarkUp at v. wasSynced is synced()
// before the flip; when the index had already missed a change it is left
// for the next query to rebuild, and when nothing flipped there is nothing
// to rekey.
func (x *idleIndex) statusChanged(g *resgraph.Graph, v *resgraph.Vertex, wasSynced bool) {
	if !wasSynced || x.synced(g) {
		return
	}
	in, out := v.TreeInterval()
	for i := range x.types {
		it := &x.types[i]
		for j := it.search(in); j < len(it.ins) && it.ins[j] < out; j++ {
			it.set(j, x.key(it.verts[j]))
		}
	}
	x.statusGen, x.structGen = g.StatusGen(), g.StructVersion()
}

// attached inserts the indexed vertices of sub, just grafted, at their
// pre-order position (the labels of the vertices already indexed were
// renumbered, but their order is unchanged).
func (x *idleIndex) attached(g *resgraph.Graph, sub *resgraph.Vertex, wasSynced bool) {
	if !wasSynced {
		return
	}
	for i := range x.types {
		x.types[i].relabel()
	}
	x.insert(sub)
	x.collect(sub, func(_ *idleType, v *resgraph.Vertex) { x.insert(v) })
	for i := range x.types {
		x.types[i].build()
	}
	x.statusGen, x.structGen = g.StatusGen(), g.StructVersion()
}

// insert adds v, unindexed so far, at its pre-order position; the caller
// rebuilds the max tree.
func (x *idleIndex) insert(v *resgraph.Vertex) {
	it := x.typeOf(v.TypeID)
	if it == nil {
		return
	}
	in, _ := v.TreeInterval()
	i := it.search(in)
	k := x.key(v)
	it.verts, it.ins, it.keys = slices.Insert(it.verts, i, v), slices.Insert(it.ins, i, in), slices.Insert(it.keys, i, k)
	if k != idleNone {
		it.cal.Add(k, 1)
	}
}

// detachRange returns, per type, the positions [lo, hi) of the indexed
// vertices in v's subtree; taken before Detach renumbers the tree.
func (x *idleIndex) detachRange(v *resgraph.Vertex) [][2]int {
	in, out := v.TreeInterval()
	rs := make([][2]int, len(x.types))
	for i := range x.types {
		rs[i] = [2]int{x.types[i].search(in), x.types[i].search(out)}
	}
	return rs
}

// detached deletes the ranges detachRange found, once Detach succeeded.
func (x *idleIndex) detached(g *resgraph.Graph, rs [][2]int, wasSynced bool) {
	if !wasSynced {
		return
	}
	for i, r := range rs {
		it := &x.types[i]
		for j := r[0]; j < r[1]; j++ {
			it.set(j, idleNone)
		}
		it.verts, it.ins, it.keys = slices.Delete(it.verts, r[0], r[1]), slices.Delete(it.ins, r[0], r[1]), slices.Delete(it.keys, r[0], r[1])
		it.relabel()
		it.build()
	}
	x.statusGen, x.structGen = g.StatusGen(), g.StructVersion()
}

// short returns the first type of needs with fewer vertices idle
// throughout [at, at+dur) than the request takes whole, and by how many;
// a zero shortfall admits. exact reports that the keys are exact at `at`,
// so the count was taken and a walk may select from the index
// (matcher.firstFitIdle). It rebuilds the index first when the graph
// changed behind it.
func (x *idleIndex) short(t *Traverser, needs []jobspec.TypeCount, at, dur int64) (id int32, n int64, exact bool) {
	if len(needs) == 0 || x.off || !t.containment {
		return 0, 0, false
	}
	for _, n := range needs {
		if x.typeOf(n.ID) == nil {
			if rf := t.root.Filter(); rf != nil && rf.PlannerByID(n.ID) != nil {
				x.index(t, n.ID)
			}
		}
	}
	if len(x.types) == 0 {
		return 0, 0, false
	}
	if !x.synced(t.g) {
		x.resync(t)
	}
	if x.ends.Below(at+1) > 0 {
		return 0, 0, false // an allocation ended by at: its vertices' keys are early
	}
	for _, n := range needs {
		it := x.typeOf(n.ID)
		if it == nil {
			continue
		}
		if idle := int64(len(it.verts)) - it.cal.Below(at+dur); idle < n.Units {
			return n.ID, n.Units - idle, true
		}
	}
	return 0, 0, true
}

// CheckIdleIndex reports whether the window-exact admission index equals
// one rebuilt from the graph and the allocation table (a test hook; nil
// when they agree).
func (t *Traverser) CheckIdleIndex() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := &t.idle
	if !live.synced(t.g) {
		return nil // the next query rebuilds it
	}
	fresh := &idleIndex{byType: live.byType}
	for _, it := range live.types {
		fresh.types = append(fresh.types, idleType{id: it.id})
	}
	fresh.rebuild(t)
	for _, a := range t.allocs {
		if a.idleEnd != live.holds(a) {
			return fmt.Errorf("job %d: idle end recorded %v, holds indexed units %v", a.JobID, a.idleEnd, !a.idleEnd)
		}
	}
	for i := range live.types {
		lt, ft := &live.types[i], &fresh.types[i]
		if !slices.Equal(lt.verts, ft.verts) || !slices.Equal(lt.ins, ft.ins) {
			return fmt.Errorf("type %d: %d vertices indexed, %d in the graph, or their labels moved", lt.id, len(lt.verts), len(ft.verts))
		}
		for j := range lt.keys {
			if lt.keys[j] != ft.keys[j] {
				return fmt.Errorf("%s: key %d, rebuilt %d", lt.verts[j].Path(), lt.keys[j], ft.keys[j])
			}
		}
		if !slices.Equal(lt.tree, ft.tree) {
			return fmt.Errorf("type %d: max tree %v, rebuilt %v", lt.id, lt.tree, ft.tree)
		}
		if err := sameCounts(&lt.cal, &ft.cal); err != nil {
			return fmt.Errorf("type %d calendar: %w", lt.id, err)
		}
	}
	if err := sameCounts(&live.ends, &fresh.ends); err != nil {
		return fmt.Errorf("allocation ends: %w", err)
	}
	return nil
}

// sameCounts compares two count calendars key by key.
func sameCounts(a, b *planner.Counts) error {
	type kn struct{ t, n int64 }
	var as, bs []kn
	a.Each(func(t, n int64) { as = append(as, kn{t, n}) })
	b.Each(func(t, n int64) { bs = append(bs, kn{t, n}) })
	if !slices.Equal(as, bs) {
		return fmt.Errorf("keys %v, rebuilt %v", as, bs)
	}
	return nil
}
