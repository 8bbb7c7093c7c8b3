package resgraph

import (
	"math/bits"

	"fluxion/internal/planner"
)

// This file implements the MVCC epoch layer: immutable snapshots of the
// graph's match-relevant state that match workers pin once and then read
// with zero synchronization — no graph RWMutex, no per-vertex claim
// atomics.
//
// Publication and materialisation are separate steps. Every mutating
// operation ends by *publishing*: the version counter advances and the
// buffered capacity deltas (delta.go) flush to the sink in order, so the
// wakeup index and the WAL observe exactly one consistent boundary per
// transition. Publications serialize under epochMu and are totally
// ordered. A publish snapshots nothing; it leaves the dirty set (a bitmap
// over UniqIDs and the epochAll bit) in place. An Epoch is *built* only
// when a reader asks for one (Graph.Epoch), from the union of what the
// publications since the previous build dirtied. A graph with no epoch
// readers — the one-worker scheduler — pays for the bootstrap build and
// nothing else.
//
// An epoch holds one vertexSnap per vertex — status, pre-order interval
// labels, a planner.Snapshot of the vertex's availability calendar, and a
// planner.MultiSnapshot of its pruning filter — stored in fixed-size
// chunks. A build copies the chunk directory and only the chunks
// containing re-snapshotted vertices; everything else is shared with the
// previous epoch. Structural changes (attach/detach, which renumber the
// pre-order labels) rebuild every chunk and bump the structural version,
// which the match scratch arenas use to drop cached candidate buffers that
// may pin dead vertices.
//
// Memory reclamation is the garbage collector's: a retired epoch stays
// reachable only while some reader still holds its pointer, and chunks
// untouched across builds are shared, not copied.

const (
	epochChunkBits = 8
	epochChunkSize = 1 << epochChunkBits
	epochChunkMask = epochChunkSize - 1
)

// vertexSnap is one vertex's immutable per-epoch state.
type vertexSnap struct {
	live            bool // attached to the graph at capture time
	down            bool
	treeIn, treeOut int32
	plan            *planner.Snapshot
	filter          *planner.MultiSnapshot
}

// epochChunk holds the snaps of epochChunkSize consecutive UniqIDs.
type epochChunk struct {
	snaps [epochChunkSize]vertexSnap
}

// Epoch is one immutable published graph snapshot. All methods are safe
// for unsynchronized concurrent use from any number of goroutines.
type Epoch struct {
	version       uint64
	structVersion uint64
	uniqBound     int64
	chunks        []*epochChunk
}

// Version returns the published version this epoch materialises (the
// bootstrap epoch Finalize builds is version 1).
func (e *Epoch) Version() uint64 { return e.version }

// StructVersion returns the structural generation: it changes only on
// transitions that renumbered the containment pre-order labels or changed
// the vertex set (attach/detach). Scratch arenas key cached candidate
// buffers off it.
func (e *Epoch) StructVersion() uint64 { return e.structVersion }

// UniqBound returns the exclusive UniqID upper bound at capture time;
// vertices created later are not in this epoch.
func (e *Epoch) UniqBound() int64 { return e.uniqBound }

// snap returns the vertex snap for uid, or nil when uid is outside the
// epoch.
func (e *Epoch) snap(uid int64) *vertexSnap {
	if uid < 0 || uid >= e.uniqBound {
		return nil
	}
	ci := int(uid >> epochChunkBits)
	if ci >= len(e.chunks) || e.chunks[ci] == nil {
		return nil
	}
	return &e.chunks[ci].snaps[uid&epochChunkMask]
}

// Up reports whether the vertex was attached and schedulable in this
// epoch. Vertices outside the epoch (created after capture) are not up.
func (e *Epoch) Up(uid int64) bool {
	s := e.snap(uid)
	return s != nil && s.live && !s.down
}

// Plan returns the epoch's availability snapshot for uid (nil when the
// vertex is not live in this epoch).
func (e *Epoch) Plan(uid int64) *planner.Snapshot {
	s := e.snap(uid)
	if s == nil {
		return nil
	}
	return s.plan
}

// Filter returns the epoch's pruning-filter snapshot for uid (nil when
// the vertex carries no filter or is not live in this epoch).
func (e *Epoch) Filter(uid int64) *planner.MultiSnapshot {
	s := e.snap(uid)
	if s == nil {
		return nil
	}
	return s.filter
}

// TreeInterval returns uid's containment pre-order interval in this
// epoch, or (0, 0) when the vertex is outside it.
func (e *Epoch) TreeInterval(uid int64) (in, out int32) {
	s := e.snap(uid)
	if s == nil {
		return 0, 0
	}
	return s.treeIn, s.treeOut
}

// InSubtree reports whether uid lies in the containment subtree rooted
// at rootUID, per this epoch's pre-order labels. Vertices outside the
// epoch are conservatively reported as contained (callers use this to
// decide cache invalidation; over-invalidating is safe).
func (e *Epoch) InSubtree(rootUID, uid int64) bool {
	r, v := e.snap(rootUID), e.snap(uid)
	if r == nil || v == nil {
		return true
	}
	return r.treeIn <= v.treeIn && v.treeIn < r.treeOut
}

// Epoch returns the graph's state as of the latest publication (nil before
// Finalize), materialising it first when publications have happened since
// the last build. Publishing is cheap and building is not, so the snapshot
// work is done here, for the reader that wants it, from the dirty set the
// intervening publications carried forward: a graph nobody pins never
// builds. The result is immutable and may be read indefinitely.
//
// A build reads live planners, which hold no locks, so it must not
// overlap a mutating operation: callers hold the owning traverser's lock
// (see package planner and Traverser.PinEpoch). For the same reason a
// build made while marks are pending but unpublished (inside a batch) may
// already reflect them; such an epoch is not EpochStable until
// superseded. Must not be called with the graph lock held.
func (g *Graph) Epoch() *Epoch {
	e := g.epoch.Load()
	if e == nil || e.version == g.epochVersion.Load() {
		return e
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.epochMu.Lock()
	defer g.epochMu.Unlock()
	if e = g.epoch.Load(); e.version != g.epochVersion.Load() {
		e = g.buildEpochLocked(e)
		g.epoch.Store(e)
	}
	return e
}

// EpochVersion returns the latest published version (0 before Finalize).
func (g *Graph) EpochVersion() uint64 { return g.epochVersion.Load() }

// StructVersion returns the live structural generation (see
// Epoch.StructVersion); stable while the graph's reader lock is held.
func (g *Graph) StructVersion() uint64 { return g.structVersion.Load() }

// EpochBuilds returns how many epochs have been materialised, the
// bootstrap included.
func (g *Graph) EpochBuilds() uint64 { return g.epochBuilds.Load() }

// EpochStable reports whether ep is the latest published epoch with no
// unpublished mutations pending against it. This is the commit-time
// re-validation of the MVCC pipeline: a speculation whose pinned epoch is
// stable at commit time (checked while the committer excludes writers)
// proves nothing changed since it matched, so the per-vertex conflict
// re-walk can be skipped.
func (g *Graph) EpochStable(ep *Epoch) bool {
	if ep == nil {
		return false
	}
	g.epochMu.Lock()
	ok := ep.version == g.epochVersion.Load() && !g.epochUnpub && len(g.pendingDeltas) == 0
	g.epochMu.Unlock()
	return ok
}

// MarkEpochDirty records that the planner or filter state of vs changed:
// the next publication covers them and the next build re-snapshots them.
// Mutators call it after installing or removing spans, once per operation
// with every vertex the operation touched. The set is a bitmap over
// UniqIDs, sized by the last full build: a vertex beyond it was attached
// since, which already scheduled the next full build.
func (g *Graph) MarkEpochDirty(vs ...*Vertex) {
	if len(vs) == 0 || g.epoch.Load() == nil {
		return
	}
	g.epochMu.Lock()
	for _, v := range vs {
		if v == nil {
			continue
		}
		if w := int(v.UniqID >> 6); w < len(g.epochDirty) {
			g.epochDirty[w] |= 1 << (v.UniqID & 63)
		} else {
			g.epochAll = true
		}
	}
	g.epochUnpub = true
	g.epochMu.Unlock()
}

// markEpochAllLocked records a structural change: the structural version
// moves with the topology (not with the publication, so live-graph matches
// and builds inside an open batch never pair new labels with an old
// generation) and the next build redoes every chunk. Callers hold g.mu.
func (g *Graph) markEpochAllLocked() {
	if g.epoch.Load() == nil {
		return
	}
	g.epochMu.Lock()
	g.epochAll = true
	g.epochUnpub = true
	g.structVersion.Add(1)
	g.epochMu.Unlock()
}

// BeginEpochBatch defers epoch publication until the matching
// EndEpochBatch: mutations inside the batch accumulate into one epoch
// transition (and one delta flush) instead of publishing per operation.
// The scheduler brackets each cycle with a batch so a cycle's worth of
// commits and cancels is one boundary; mutations arriving mid-cycle from
// other goroutines land in the same next epoch instead of blocking.
// Batches nest.
func (g *Graph) BeginEpochBatch() {
	g.epochMu.Lock()
	g.epochBatch++
	g.epochMu.Unlock()
}

// EndEpochBatch closes a batch and, when it is the outermost one,
// publishes the accumulated transition.
func (g *Graph) EndEpochBatch() {
	g.epochMu.Lock()
	if g.epochBatch > 0 {
		g.epochBatch--
	}
	g.publishLocked()
	g.epochMu.Unlock()
}

// PublishEpoch publishes an epoch transition covering every mutation
// recorded since the last one: the version advances and the buffered
// capacity deltas flush to the sink. Nothing is snapshotted — the dirty set
// stays behind for the next build (see Epoch). Mutating operations call it
// once at their end; it is a no-op when nothing is pending or a batch is
// open. Safe to call with or without the graph lock held.
func (g *Graph) PublishEpoch() {
	g.epochMu.Lock()
	g.publishLocked()
	g.epochMu.Unlock()
}

// publishLocked is PublishEpoch under epochMu.
func (g *Graph) publishLocked() {
	if g.epochBatch > 0 || g.epoch.Load() == nil {
		return
	}
	if g.epochUnpub {
		g.epochUnpub = false
		g.epochVersion.Add(1)
	}
	// Flush buffered deltas in publication order, still under epochMu so
	// concurrent transitions cannot interleave their flushes. The sink
	// contract (SetDeltaSink) already forbids calling back into the graph.
	if len(g.pendingDeltas) > 0 {
		if sink := g.deltaSink.Load(); sink != nil {
			for i := range g.pendingDeltas {
				(*sink)(g.pendingDeltas[i])
			}
		}
		g.pendingDeltas = g.pendingDeltas[:0]
	}
}

// bootstrapEpochLocked builds and publishes the first epoch; Finalize
// calls it under g.mu once paths, planners, and filters exist.
func (g *Graph) bootstrapEpochLocked() {
	g.epochAll = true
	g.epochVersion.Store(1)
	g.structVersion.Store(1)
	g.epoch.Store(g.buildEpochLocked(nil))
}

// buildEpochLocked materialises the published version from prev plus the
// dirty set accumulated since prev was built (from scratch after a
// structural change), consuming that set. Callers hold g.mu (any side)
// and epochMu.
func (g *Graph) buildEpochLocked(prev *Epoch) *Epoch {
	g.epochBuilds.Add(1)
	bound := g.nextUniq
	e := &Epoch{
		version:       g.epochVersion.Load(),
		structVersion: g.structVersion.Load(),
		uniqBound:     bound,
		chunks:        make([]*epochChunk, (bound+epochChunkMask)>>epochChunkBits),
	}
	if g.epochAll {
		for _, v := range g.vertices {
			ci := int(v.UniqID >> epochChunkBits)
			c := e.chunks[ci]
			if c == nil {
				c = &epochChunk{}
				e.chunks[ci] = c
			}
			fillSnap(&c.snaps[v.UniqID&epochChunkMask], g, v)
		}
		g.epochDirty = make([]uint64, (bound+63)>>6)
		g.epochAll = false
		return e
	}
	copy(e.chunks, prev.chunks)
	ts := g.topo.Load()
	for w, set := range g.epochDirty {
		for ; set != 0; set &= set - 1 {
			uid := int64(w)<<6 | int64(bits.TrailingZeros64(set))
			if uid >= int64(len(ts.pre)) || ts.pre[uid] < 0 {
				continue // not in the tree: dead in every epoch as it is
			}
			ci := int(uid >> epochChunkBits)
			if e.chunks[ci] == prev.chunks[ci] {
				// Copy-on-write: the first dirty vertex in a chunk clones
				// it; later ones mutate the clone.
				nc := *prev.chunks[ci]
				e.chunks[ci] = &nc
			}
			fillSnap(&e.chunks[ci].snaps[uid&epochChunkMask], g, ts.order[ts.pre[uid]])
		}
		g.epochDirty[w] = 0
	}
	return e
}

// fillSnap captures v's current match-relevant state into s. Callers
// hold g.mu, which freezes status and the pre-order labels, and the owning
// traverser's lock, which keeps planner edits out (see package planner).
func fillSnap(s *vertexSnap, g *Graph, v *Vertex) {
	live := v.graph == g && v.plan != nil && v.path != ""
	s.live = live
	s.down = v.Status == StatusDown
	s.treeIn, s.treeOut = v.treeIn, v.treeOut
	if !live {
		s.plan, s.filter = nil, nil
		return
	}
	s.plan = g.snapPlanner(v.plan)
	if v.filter != nil {
		s.filter = v.filter.SnapshotByIDWith(g.snapPlanner)
	} else {
		s.filter = nil
	}
}

// snapPlanner captures p's step function, sharing one cached snapshot per
// distinct pool size across all span-free planners: at rest nearly every
// vertex is flat, so epochs hold O(pool sizes) snapshot objects instead of
// one per vertex. Callers hold epochMu (which guards flatSnaps); cached
// entries are immutable and stay valid forever because a flat snapshot
// depends only on (base, horizon, total), all fixed per graph.
func (g *Graph) snapPlanner(p *planner.Planner) *planner.Snapshot {
	total, flat := p.FlatTotal()
	if !flat {
		return p.Snapshot()
	}
	if s := g.flatSnaps[total]; s != nil {
		return s
	}
	s := p.Snapshot()
	if g.flatSnaps == nil {
		g.flatSnaps = make(map[int64]*planner.Snapshot)
	}
	g.flatSnaps[total] = s
	return s
}
