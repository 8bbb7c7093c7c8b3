package resgraph

// This file implements the publish boundary. Every mutating operation
// ends by *publishing*: when it changed something, the version counter
// advances, and the buffered capacity deltas (delta.go) flush to the sink
// in order, so the wakeup index, the WAL and checkpoints observe exactly
// one consistent boundary per transition. Publications serialize under
// epochMu and are totally ordered. Mutators record only that something
// changed since the last publication (MarkEpochDirty), so the version
// counts publications that had something to publish.

// EpochVersion returns the latest published version (0 before Finalize,
// 1 right after it).
func (g *Graph) EpochVersion() uint64 { return g.epochVersion.Load() }

// StructVersion returns the live structural generation: it changes only
// on transitions that renumbered the containment pre-order labels or
// changed the vertex set (attach/detach). Scratch arenas key cached
// candidate buffers off it; stable while the graph's reader lock is held.
func (g *Graph) StructVersion() uint64 { return g.structVersion.Load() }

// StatusGen returns the status generation: it changes whenever MarkDown or
// MarkUp flips at least one vertex. A cache derived from status bits
// compares it to the generation it was built at to learn that a flip it
// did not see happened.
func (g *Graph) StatusGen() uint64 { return g.statusGen.Load() }

// MarkEpochDirty records that planner or filter state changed: the next
// publication advances the version. Mutators call it after installing or
// removing spans, once per operation that changed something.
func (g *Graph) MarkEpochDirty() {
	if g.epochVersion.Load() == 0 {
		return
	}
	g.epochMu.Lock()
	g.epochUnpub = true
	g.epochMu.Unlock()
}

// markEpochAllLocked records a structural change: the structural version
// moves with the topology (not with the publication, so matches inside an
// open batch never pair new labels with an old generation). Callers hold
// g.mu.
func (g *Graph) markEpochAllLocked() {
	if g.epochVersion.Load() == 0 {
		return
	}
	g.epochMu.Lock()
	g.epochUnpub = true
	g.structVersion.Add(1)
	g.epochMu.Unlock()
}

// BeginEpochBatch defers publication until the matching EndEpochBatch:
// mutations inside the batch accumulate into one transition (and one
// delta flush) instead of publishing per operation. The scheduler
// brackets each cycle with a batch so a cycle's worth of commits and
// cancels is one boundary; mutations arriving mid-cycle from other
// goroutines land in the same next transition instead of blocking.
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

// PublishEpoch publishes a transition covering every mutation recorded
// since the last one: the version advances and the buffered capacity
// deltas flush to the sink. Mutating operations call it once at their
// end; it is a no-op when nothing is pending or a batch is open. Safe to
// call with or without the graph lock held.
func (g *Graph) PublishEpoch() {
	g.epochMu.Lock()
	g.publishLocked()
	g.epochMu.Unlock()
}

// publishLocked is PublishEpoch under epochMu.
func (g *Graph) publishLocked() {
	if g.epochBatch > 0 || g.epochVersion.Load() == 0 {
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

// bootstrapEpochLocked publishes version 1; Finalize calls it under g.mu
// once paths, planners, and filters exist.
func (g *Graph) bootstrapEpochLocked() {
	g.structVersion.Store(1)
	g.epochVersion.Store(1)
}
