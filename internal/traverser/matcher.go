package traverser

import (
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
)

// This file is the allocation-free match kernel. One match attempt walks
// the graph with a matcher backed by a reusable matchScratch:
//
//   - requests come precompiled (jobspec.Compiled): interned type IDs,
//     flattened nodes, and per-node aggregate needs, so no maps are
//     built while matching;
//   - per-vertex window availability (AvailDuring) is memoized for the
//     attempt in dense generation-stamped arrays, so the Order predicate
//     and tryCandidate never repeat a planner query;
//   - collect results are cached per (vertex, request node) for the
//     attempt, so a count-N slot walks the subtree once instead of N
//     times; under the first-fit policy a cursor additionally resumes
//     each scan past candidates proven exhausted;
//   - selections accumulate in a scratch log and are copied into the
//     returned Allocation only on success.
//
// Cache correctness: within one attempt the graph topology and status
// bits are frozen (the traverser holds the graph's reader lock, or reads
// an immutable pinned epoch) and
// pruning filters only change after the walk (SDFU runs at commit), so
// a cached candidate list can only be invalidated by a claim — or a
// rollback of a claim — of units on a vertex the collection descended
// through: a vertex with children that is not of the list's target type
// (collect never descends through target-type vertices). Such
// structural changes invalidate exactly the lists whose collection
// subtree contains the vertex; first-fit cursors are reset on any
// rollback, since restored capacity can revive a skipped candidate.

// matcher holds the state of one match attempt at a fixed (at, duration)
// window. Spans are committed eagerly and rolled back on failure, so
// partially matched slots never leak.
type matcher struct {
	t     *Traverser
	s     *matchScratch
	nodes []jobspec.CNode // compiled request vertices
	at    int64
	dur   int64
	dry   bool // capacity-only satisfiability check: no spans
	// ep, when non-nil, is the pinned MVCC epoch of a speculation: status,
	// subtree labels, planners, and filters are read from its immutable
	// snapshots with zero synchronization, and tentative claims stay in
	// the attempt's private scratch instead of becoming spans.
	ep *resgraph.Epoch
	// rot rotates first-fit candidate lists by a jobID-derived offset
	// (see EnableSteering), so concurrent speculators probe disjoint pools
	// without any shared state.
	rot uint64
	// sig, when non-nil, accumulates blocking reasons as the walk prunes
	// or rejects candidates (see signature.go). Reasons survive
	// rollbacks on purpose: a rolled-back claim was still a real
	// constraint the job ran into.
	sig *BlockSig
}

// note records a blocking reason at v when signature capture is on.
func (m *matcher) note(v *resgraph.Vertex, typeID int32, shortfall int64) {
	if m.sig != nil {
		m.sig.noteVertex(v, typeID, shortfall)
	}
}

// up reports whether v is schedulable for this attempt: per the pinned
// epoch in epoch mode (v.Status would be a data race without the graph
// lock), per the live status bit otherwise.
func (m *matcher) up(v *resgraph.Vertex) bool {
	if m.ep != nil {
		return m.ep.Up(v.UniqID)
	}
	return v.Status == resgraph.StatusUp
}

// availUnits returns the units of v available throughout the window,
// memoized per vertex for the attempt (claims and rollbacks invalidate
// the vertex's entry).
func (m *matcher) availUnits(v *resgraph.Vertex) int64 {
	s := m.s
	uid := v.UniqID
	if s.availGen[uid] == s.gen {
		return s.avail[uid]
	}
	var a int64
	switch {
	case m.dry:
		a = v.Size - s.tentative[uid]
	case m.ep != nil:
		// Epoch mode: window availability from the immutable snapshot,
		// minus this attempt's own scratch-local tentative claims. No
		// shared state is read or written.
		if sn := m.ep.Plan(uid); sn != nil {
			if avail, err := sn.AvailDuring(m.at, m.dur); err == nil {
				a = avail
			}
		}
		a -= s.tentative[uid]
	default:
		avail, err := v.Planner().AvailDuring(m.at, m.dur)
		if err == nil {
			a = avail
		}
	}
	s.avail[uid] = a
	s.availGen[uid] = s.gen
	return a
}

// claim plans units on v for the window and records the selection in the
// scratch log.
func (m *matcher) claim(v *resgraph.Vertex, units int64) bool {
	va := VertexAlloc{V: v, Units: units}
	if units > 0 {
		switch {
		case m.dry, m.ep != nil:
			m.s.tentative[v.UniqID] += units
		default:
			id, err := v.Planner().AddSpan(m.at, m.dur, units)
			if err != nil {
				return false
			}
			va.span = id // marked dirty when the attempt ends
		}
		m.s.availGen[v.UniqID] = 0 // drop the memoized availability
		if v.HasChildren(m.t.subsystem) {
			m.s.cands.structuralChange(v, m.t.containment, m.ep)
		}
	}
	m.s.verts = append(m.s.verts, va)
	return true
}

// rollbackTo undoes every claim past mark (an index into the scratch
// selection log) and resets first-fit cursors, since restored capacity
// can revive candidates a cursor skipped.
func (m *matcher) rollbackTo(mark int) {
	undo := m.s.verts[mark:]
	if len(undo) == 0 {
		return
	}
	if !m.dry && m.ep == nil {
		m.t.markDirty(undo, nil) // commit mode: the spans below were live
	}
	for _, va := range undo {
		if va.Units == 0 {
			continue
		}
		switch {
		case m.dry, m.ep != nil:
			m.s.tentative[va.V.UniqID] -= va.Units
		default:
			_ = va.V.Planner().RemoveSpan(va.span)
		}
		m.s.availGen[va.V.UniqID] = 0
		if va.V.HasChildren(m.t.subsystem) {
			m.s.cands.structuralChange(va.V, m.t.containment, m.ep)
		}
	}
	m.s.verts = m.s.verts[:mark]
	m.s.cands.resetCursors()
}

// matchForest satisfies every request in reqs (compiled node indexes)
// under vertex v.
func (m *matcher) matchForest(v *resgraph.Vertex, reqs []int32, excl bool) bool {
	for _, ri := range reqs {
		if !m.matchRequest(v, ri, excl) {
			return false
		}
	}
	return true
}

// matchRequest satisfies one compiled request vertex under v.
func (m *matcher) matchRequest(v *resgraph.Vertex, ni int32, excl bool) bool {
	cn := &m.nodes[ni]
	if cn.IsSlot {
		// A slot is a transparent grouping: its shape is matched
		// Count times under the current vertex, each instance
		// exclusively (paper §4.2). Moldable slots accept any
		// instance count down to MinCount.
		for i := int64(0); i < cn.Count; i++ {
			mark := len(m.s.verts)
			if !m.matchForest(v, cn.With, true) {
				m.rollbackTo(mark)
				return i >= cn.Min
			}
		}
		return true
	}

	needed := cn.Count
	if v.TypeID == cn.TypeID {
		// Self-match (e.g. a cluster-typed request at the root).
		needed -= m.tryCandidate(v, cn, excl, needed)
		return needed <= 0 || cn.Count-needed >= cn.Min
	}

	key := candKey{vertex: v.UniqID, node: ni}
	e := m.s.cands.lookup(key)
	if e == nil {
		buf := m.s.cands.getBuf()
		buf = m.collect(buf[:0], v, cn)
		if m.rot != 0 && len(buf) > 1 {
			// Divergence steering: rotate the traversal-order
			// list by a jobID-derived offset so concurrent first-fit
			// speculators start their scans at different pools. Done
			// once at collect time so cursors stay consistent.
			rotateVerts(buf, int(m.rot%uint64(len(buf))))
		}
		e = m.s.cands.put(key, v, cn.TypeID, buf)
	}

	if m.t.staticOrder {
		// First-fit: scan the cached traversal-order list from the
		// cursor, then advance the cursor past the leading run of
		// candidates now proven dead (failed, or drained to zero
		// availability) — without a rollback they stay dead, so the
		// next slot instance resumes where this one got traction.
		cands := e.cands
		start := int(e.cursor)
		dead := 0
		for j := start; j < len(cands) && needed > 0; j++ {
			c := cands[j]
			contrib := m.tryCandidate(c, cn, excl, needed)
			needed -= contrib
			if j == start+dead && (contrib == 0 || m.availUnits(c) <= 0) {
				dead++
			}
		}
		if dead > 0 {
			m.s.cands.advanceCursor(key, int32(start+dead))
		}
	} else {
		// Ranking policy: re-order a scratch copy of the cached list
		// every scan, exactly as the interpreted kernel re-ordered
		// each fresh collect (avail-dependent comparators may rank
		// differently as capacity drains).
		buf := m.s.pushOrdered(e.cands)
		m.t.policy.Order(buf, needed, func(c *resgraph.Vertex) bool {
			return m.availUnits(c) > 0
		})
		for _, c := range buf {
			if needed <= 0 {
				break
			}
			needed -= m.tryCandidate(c, cn, excl, needed)
		}
		m.s.popOrdered()
	}
	// Moldable requests accept any grant down to MinCount.
	if needed <= 0 || cn.Count-needed >= cn.Min {
		return true
	}
	// The request fell short under v: at least the units past the
	// moldable floor must come free somewhere beneath it.
	m.note(v, cn.TypeID, needed-(cn.Count-cn.Min))
	return false
}

// tryCandidate attempts to take (part of) request cn from candidate c,
// returning the units of cn's type it contributed (0 on failure). Claims
// made for a failed candidate are rolled back before returning.
func (m *matcher) tryCandidate(c *resgraph.Vertex, cn *jobspec.CNode, excl bool, needed int64) int64 {
	if !m.up(c) {
		return 0
	}
	exclusive := excl || cn.Exclusive
	avail := m.availUnits(c)

	var units, contribution int64
	if len(cn.With) > 0 {
		// Structural vertex: it hosts a nested shape. Exclusive use
		// consumes the whole pool; shared use grants traversal only
		// but requires the vertex not to be exclusively taken.
		if exclusive {
			if avail < c.Size {
				m.note(c, AnyType, c.Size-avail)
				return 0
			}
			units = c.Size
		} else {
			if avail <= 0 {
				m.note(c, AnyType, 1)
				return 0
			}
			units = 0
		}
		contribution = 1
	} else {
		// Leaf pool: take up to `needed` units. Pool units are
		// inherently dedicated, so exclusivity adds nothing for
		// size>1 pools; for singletons it is the whole vertex
		// either way.
		units = min(needed, avail)
		if units <= 0 {
			m.note(c, cn.TypeID, needed-max(avail, 0))
			return 0
		}
		contribution = units
	}

	// The candidate's own pruning filter must clear the nested shape's
	// aggregate needs before we descend (paper §3.4).
	if !m.dry && len(cn.With) > 0 && !m.filterAdmits(c, cn.Needs) {
		return 0
	}

	mark := len(m.s.verts)
	if len(cn.With) > 0 && !m.matchForest(c, cn.With, exclusive) {
		m.rollbackTo(mark)
		return 0
	}
	if !m.claim(c, units) {
		m.rollbackTo(mark)
		return 0
	}
	return contribution
}

// collect gathers candidate vertices of cn's type beneath v into out,
// walking the subsystem's edges through transparent intermediate levels.
// Descent is pruned at vertices that are exclusively allocated or whose
// pruning filter cannot cover one instance's aggregate needs.
func (m *matcher) collect(out []*resgraph.Vertex, v *resgraph.Vertex, cn *jobspec.CNode) []*resgraph.Vertex {
	// Kids is a zero-copy view into the containment topo slab, so the
	// whole descent is sequential reads of one shared array (overlay
	// subsystems return their stored adjacency slice).
	for _, c := range v.Kids(m.t.subsystem) {
		if !m.up(c) {
			continue
		}
		if c.TypeID == cn.TypeID {
			out = append(out, c)
			continue
		}
		if !c.HasChildren(m.t.subsystem) {
			continue // leaf of another type
		}
		if !m.dry {
			// Exclusivity prune: a fully planned structural
			// vertex hides its subtree.
			if m.availUnits(c) <= 0 {
				m.note(c, AnyType, 1)
				continue
			}
			if !m.filterAdmits(c, cn.Needs) {
				continue
			}
		}
		out = m.collect(out, c, cn)
	}
	return out
}

// filterAdmits checks c's pruning filter (if any) against the aggregate
// needs of one request instance, resolving member planners by interned
// type ID.
func (m *matcher) filterAdmits(c *resgraph.Vertex, needs []jobspec.TypeCount) bool {
	if m.ep != nil {
		ms := m.ep.Filter(c.UniqID)
		if ms == nil {
			return true
		}
		for i := range needs {
			sn := ms.ByID(needs[i].ID)
			if sn == nil {
				continue // filter does not track this type
			}
			if !sn.CanFit(m.at, m.dur, needs[i].Units) {
				return false
			}
		}
		return true
	}
	f := c.Filter()
	if f == nil {
		return true
	}
	for i := range needs {
		p := f.PlannerByID(needs[i].ID)
		if p == nil {
			continue // filter does not track this type
		}
		// One descent answers both the fit and, on a miss, the shortfall
		// a blocking signature records; a window outside the planner's
		// range (or a negative remainder) is short by the whole request.
		avail, err := p.AvailDuring(m.at, m.dur)
		if err == nil && avail >= needs[i].Units {
			continue
		}
		if m.sig != nil {
			short := needs[i].Units
			if err == nil && avail >= 0 {
				short -= avail
			}
			m.sig.noteVertex(c, needs[i].ID, short)
		}
		return false
	}
	return true
}

// rotateVerts rotates s left by k (0 <= k < len(s)) in place via the
// triple-reversal trick, allocation-free.
func rotateVerts(s []*resgraph.Vertex, k int) {
	reverseVerts(s[:k])
	reverseVerts(s[k:])
	reverseVerts(s)
}

func reverseVerts(s []*resgraph.Vertex) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
