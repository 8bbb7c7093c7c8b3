package traverser

import (
	"fluxion/internal/resgraph"
)

// matchScratch is the reusable working memory of one match attempt. A
// traverser keeps one instance (every match holds its write lock), so
// steady-state matching allocates nothing.
//
// The dense per-vertex arrays are indexed by Vertex.UniqID and
// generation-stamped: begin bumps gen, and a slot is live only when its
// stamp equals the current generation, so reuse needs no clearing.
type matchScratch struct {
	// verts is the selection log of the attempt; successful matches copy
	// it into the returned Allocation.
	verts []VertexAlloc

	// avail memoizes availUnits' raw source per vertex (before this
	// attempt's claims); availGen stamps validity.
	avail    []int64
	availGen []uint32
	gen      uint32

	// tentative carries the attempt's claims per vertex, in every mode.
	// It is kept zeroed between attempts (rollbacks subtract, and
	// dropClaims zeroes whatever the log still holds when the attempt
	// ends) rather than generation-stamped.
	tentative []int64

	// ordered holds per-recursion-depth copies of cached candidate lists
	// for ranking policies, which reorder destructively per scan.
	ordered [][]*resgraph.Vertex
	depth   int

	// structEpoch stamps which structural generation
	// (Graph.StructVersion) the candidate cache's recycled buffers belong
	// to. When it changes (attach/detach renumbered the tree), the free
	// list is dropped so no buffer keeps detached vertices reachable.
	structEpoch uint64

	cands candCache
	sdfu  sdfuScratch
}

// begin readies the scratch for an attempt over vertices with UniqID in
// [0, n), against structural epoch generation structEpoch.
func (s *matchScratch) begin(n int64, structEpoch uint64) {
	s.gen++
	if s.gen == 0 { // uint32 wrap: stale stamps could read as live
		for i := range s.availGen {
			s.availGen[i] = 0
		}
		s.gen = 1
	}
	if int64(len(s.avail)) < n {
		s.avail = make([]int64, n)
		s.availGen = make([]uint32, n)
		s.tentative = make([]int64, n)
	}
	s.verts = s.verts[:0]
	s.depth = 0
	if s.structEpoch != structEpoch {
		s.structEpoch = structEpoch
		s.cands.dropFree()
	}
	s.cands.reset()
}

// dropClaims zeroes the tentative claims of every vertex in the selection
// log. Every claim is logged before it is counted, so this clears them all
// however the attempt ended.
func (s *matchScratch) dropClaims() {
	for _, va := range s.verts {
		s.tentative[va.V.UniqID] = 0
	}
}

// pushOrdered returns a scratch copy of cands for a ranking-policy scan,
// using the buffer for the current recursion depth (nested matchRequest
// calls during the scan use deeper buffers).
func (s *matchScratch) pushOrdered(cands []*resgraph.Vertex) []*resgraph.Vertex {
	for len(s.ordered) <= s.depth {
		s.ordered = append(s.ordered, nil)
	}
	buf := append(s.ordered[s.depth][:0], cands...)
	s.ordered[s.depth] = buf // keep any growth
	s.depth++
	return buf
}

// popOrdered releases the buffer taken by the matching pushOrdered.
func (s *matchScratch) popOrdered() { s.depth-- }

// candKey identifies a cached candidate list: the vertex the collection
// started from and the compiled request node it collected for.
type candKey struct {
	vertex int64 // Vertex.UniqID
	node   int32 // compiled node index
}

// candEntry is one cached candidate list. root/typeID support
// invalidation (which claims can affect this list); cursor is the
// first-fit resume point.
type candEntry struct {
	key    candKey
	root   *resgraph.Vertex
	typeID int32 // target type: claims on this type never invalidate
	valid  bool
	cursor int32
	cands  []*resgraph.Vertex
}

// candCache caches collect results within one match attempt. Entries
// live in a slice (reused across attempts) with a map index; candidate
// buffers are recycled through a free list at reset.
type candCache struct {
	entries []candEntry
	index   map[candKey]int32
	free    [][]*resgraph.Vertex
}

// reset clears the cache for a new attempt, recycling the candidate
// buffers of surviving entries. Every index key belongs to one entry, so
// deleting the entries' keys empties the index in O(entries); clear would
// cost the map's capacity, the largest attempt ever seen.
func (c *candCache) reset() {
	if c.index == nil {
		c.index = make(map[candKey]int32)
	}
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.cands != nil {
			c.free = append(c.free, e.cands)
		}
		e.cands = nil
		delete(c.index, e.key)
	}
	c.entries = c.entries[:0]
}

// dropFree releases the recycled candidate buffers to the garbage
// collector. Called when the structural generation changes: a recycled
// buffer still holds pointers to the previous topology's vertices, and
// keeping it would pin detached subtrees in memory indefinitely.
func (c *candCache) dropFree() {
	for i := range c.free {
		c.free[i] = nil
	}
	c.free = c.free[:0]
}

// getBuf returns a recycled candidate buffer (or nil; append grows it).
func (c *candCache) getBuf() []*resgraph.Vertex {
	if n := len(c.free); n > 0 {
		buf := c.free[n-1]
		c.free = c.free[:n-1]
		return buf
	}
	return nil
}

// lookup returns the live entry for key, or nil.
func (c *candCache) lookup(key candKey) *candEntry {
	i, ok := c.index[key]
	if !ok {
		return nil
	}
	e := &c.entries[i]
	if !e.valid {
		return nil
	}
	return e
}

// put stores a fresh candidate list for key, reusing the key's
// invalidated slot when one exists. The returned pointer is valid until
// the next put (the entries slice may grow).
func (c *candCache) put(key candKey, root *resgraph.Vertex, typeID int32, cands []*resgraph.Vertex) *candEntry {
	if i, ok := c.index[key]; ok {
		e := &c.entries[i]
		*e = candEntry{key: key, root: root, typeID: typeID, valid: true, cands: cands}
		return e
	}
	i := int32(len(c.entries))
	c.entries = append(c.entries, candEntry{key: key, root: root, typeID: typeID, valid: true, cands: cands})
	c.index[key] = i
	return &c.entries[i]
}

// structuralChange invalidates every cached list whose collection walked
// through v: a claim (or rollback) on a vertex with children changes the
// intermediate availability that collect's exclusivity prune read. Lists
// targeting v's own type are immune — collect stops at target-type
// vertices and never descends through them. For the containment
// subsystem, v's pre-order interval restricts the sweep to lists rooted
// above v; other subsystems conservatively invalidate all.
//
// Invalidated buffers are dropped to the garbage collector rather than
// recycled: a scan higher up the recursion stack may still be iterating
// the slice, so handing it to a later collect would alias live state.
func (c *candCache) structuralChange(v *resgraph.Vertex, containment bool) {
	for i := range c.entries {
		e := &c.entries[i]
		if !e.valid || e.typeID == v.TypeID {
			continue
		}
		if containment && !v.InSubtreeOf(e.root) {
			continue
		}
		e.valid = false
		e.cands = nil
	}
}

// resetCursors rewinds every first-fit cursor; called on rollback, since
// restored capacity can revive candidates a cursor skipped.
func (c *candCache) resetCursors() {
	for i := range c.entries {
		c.entries[i].cursor = 0
	}
}

// advanceCursor moves key's cursor forward. It re-resolves the entry
// through the index because entry pointers go stale when the slice
// grows.
func (c *candCache) advanceCursor(key candKey, cursor int32) {
	if i, ok := c.index[key]; ok {
		e := &c.entries[i]
		if e.valid && cursor > e.cursor {
			e.cursor = cursor
		}
	}
}

// sdfuScratch accumulates the per-filter-owner type-ID/count lists of the
// scheduler-driven filter update (paper §3.4) in reusable buffers, in
// place of a per-commit map of maps.
type sdfuScratch struct {
	owners []*resgraph.Vertex
	idx    map[*resgraph.Vertex]int32
	ids    [][]int32
	counts [][]int64
}

// begin readies the accumulator for one allocation's filter updates.
func (s *sdfuScratch) begin() {
	s.owners = s.owners[:0]
	if s.idx == nil {
		s.idx = make(map[*resgraph.Vertex]int32)
	} else {
		clear(s.idx)
	}
}

// add accumulates units of type typeID against owner's filter.
func (s *sdfuScratch) add(owner *resgraph.Vertex, typeID int32, units int64) {
	i, ok := s.idx[owner]
	if !ok {
		i = int32(len(s.owners))
		s.owners = append(s.owners, owner)
		s.idx[owner] = i
		for len(s.ids) <= int(i) {
			s.ids = append(s.ids, nil)
			s.counts = append(s.counts, nil)
		}
		s.ids[i] = s.ids[i][:0]
		s.counts[i] = s.counts[i][:0]
	}
	for j, id := range s.ids[i] {
		if id == typeID {
			s.counts[i][j] += units
			return
		}
	}
	s.ids[i] = append(s.ids[i], typeID)
	s.counts[i] = append(s.counts[i], units)
}

// foldCovered adds the filter units of the entries top covers (cover.go):
// every vertex strictly beneath it, each taken whole. Per type, those are
// top's containment aggregates less top itself, so each filter from top
// up gets them in one add instead of one per covered entry, and a filter
// strictly beneath top gets its own vertex's.
func (s *sdfuScratch) foldCovered(top *resgraph.Vertex) {
	for a := top; a != nil; a = a.Parent() {
		s.addBeneath(a, top)
	}
	s.foldInterior(top)
}

// foldInterior adds, at every filter strictly beneath v, the units
// strictly beneath the filter's own vertex.
func (s *sdfuScratch) foldInterior(v *resgraph.Vertex) {
	for _, k := range v.Kids(resgraph.Containment) {
		if k.HasChildren(resgraph.Containment) {
			s.addBeneath(k, k)
			s.foldInterior(k)
		}
	}
}

// addBeneath adds to owner's filter, per type it tracks, the units of that
// type strictly beneath v.
func (s *sdfuScratch) addBeneath(owner, v *resgraph.Vertex) {
	f := owner.Filter()
	if f == nil {
		return
	}
	for _, id := range f.IDs() {
		n := v.AggregateOf(id)
		if id == v.TypeID {
			n -= v.Size
		}
		if n > 0 {
			s.add(owner, id, n)
		}
	}
}
