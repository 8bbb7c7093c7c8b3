package resgraph

// This file defines the typed resource deltas the store publishes to an
// optional sink whenever schedulable capacity changes: allocation or
// reservation release (DeltaFree), consumption (DeltaClaim), and topology
// or status changes (DeltaStructural). An event-driven scheduler keeps a
// wakeup index over these deltas so a cycle re-attempts only the jobs
// whose blocking signature intersects something that actually changed,
// instead of re-planning the whole queue (see internal/sched).

// DeltaKind discriminates resource deltas.
type DeltaKind uint8

const (
	// DeltaFree reports capacity released on one vertex: a cancelled
	// allocation or reservation, an eviction, or a malleable shrink.
	DeltaFree DeltaKind = iota
	// DeltaClaim reports capacity consumed on one vertex by a new
	// allocation or reservation. Claims cannot unblock a previously
	// failing match, but downstream consumers (monitoring, reservation
	// invalidation heuristics) may track them.
	DeltaClaim
	// DeltaStructural reports a topology or status change (node up/down,
	// attach/detach). Subtree interval labels are renumbered by such
	// changes, so standing signatures built from them are void:
	// subscribers must conservatively wake everything.
	DeltaStructural
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaFree:
		return "free"
	case DeltaClaim:
		return "claim"
	case DeltaStructural:
		return "structural"
	default:
		return "unknown"
	}
}

// Delta is one typed capacity-change event. For DeltaFree/DeltaClaim the
// interval is the touched vertex's containment pre-order interval, TypeID
// its interned resource type, Amount the units, and [From, To) the time
// window of the released or claimed span. For DeltaStructural the interval
// is the changed subtree and the remaining fields are zero.
type Delta struct {
	Kind            DeltaKind
	TreeIn, TreeOut int32
	TypeID          int32
	Amount          int64
	From, To        int64
}

// TreeInterval returns v's containment pre-order interval [in, out):
// u contains w exactly when u.in <= w.in < u.out. Valid after Finalize.
func (v *Vertex) TreeInterval() (in, out int32) { return v.treeIn, v.treeOut }

// SetDeltaSink registers fn to observe every capacity delta the store (and
// the traverser above it) publishes. A single sink is supported; passing
// nil unsubscribes. The sink is called synchronously from mutating
// operations — possibly while graph locks are held — so it must be fast
// and must not call back into the graph.
func (g *Graph) SetDeltaSink(fn func(Delta)) {
	if fn == nil {
		g.deltaSink.Store(nil)
		return
	}
	g.deltaSink.Store(&fn)
}

// DeltaSink returns the currently registered sink (nil if none). Callers
// that need to observe the stream without displacing an existing
// subscriber read the current sink, then register a wrapper that calls
// both (see fluxion.TapDeltas).
func (g *Graph) DeltaSink() func(Delta) {
	if sink := g.deltaSink.Load(); sink != nil {
		return *sink
	}
	return nil
}

// publishDelta forwards d to the registered sink, if any. The sink is held
// behind an atomic pointer so the common no-sink case costs one load on
// hot paths (Cancel/Release publish one delta per allocated vertex).
//
// After Finalize, deltas are not delivered immediately: they buffer until
// the next publication (epoch.go) and flush with it, in order, so the sink
// observes exactly one consistent boundary per transition — the wakeup
// index and the WAL never see half of an operation.
func (g *Graph) publishDelta(d Delta) {
	sink := g.deltaSink.Load()
	if sink == nil {
		return
	}
	if g.epochVersion.Load() != 0 {
		g.epochMu.Lock()
		g.pendingDeltas = append(g.pendingDeltas, d)
		g.epochMu.Unlock()
		return
	}
	(*sink)(d)
}

// PublishSpanDelta publishes a free or claim of units of v's type over
// [from, to). The traverser calls this when allocation spans are installed
// or removed outside the store's own mutators.
func (g *Graph) PublishSpanDelta(kind DeltaKind, v *Vertex, units, from, to int64) {
	g.publishDelta(Delta{
		Kind:   kind,
		TreeIn: v.treeIn, TreeOut: v.treeOut,
		TypeID: v.TypeID,
		Amount: units,
		From:   from, To: to,
	})
}

// publishStructural publishes a structural delta for the subtree at v.
func (g *Graph) publishStructural(v *Vertex) {
	g.publishDelta(Delta{Kind: DeltaStructural, TreeIn: v.treeIn, TreeOut: v.treeOut})
}
