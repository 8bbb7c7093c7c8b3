package resgraph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"fluxion/internal/intern"
	"fluxion/internal/planner"
)

// Errors returned by graph operations.
var (
	// ErrInvalid reports a malformed graph or argument.
	ErrInvalid = errors.New("resgraph: invalid")
	// ErrNotFinalized reports use of an operation requiring Finalize.
	ErrNotFinalized = errors.New("resgraph: graph not finalized")
	// ErrBusy reports an elasticity operation on resources with live
	// allocations.
	ErrBusy = errors.New("resgraph: resources busy")
)

// PruneSpec configures pruning filters: which high-level vertex types carry
// aggregate planners, and which low-level resource types each tracks
// (paper §3.4). The pseudo vertex type ALL installs a filter on every
// vertex that has containment children.
type PruneSpec map[string][]string

// ALL is the PruneSpec wildcard vertex type.
const ALL = "ALL"

// ParsePruneSpec parses flux-style filter configuration such as
// "ALL:core" or "cluster:node,rack:node,node:core,core@gpu" — a
// comma-separated list of high-type:low-type pairs (":" or "@" separator).
func ParsePruneSpec(s string) (PruneSpec, error) {
	spec := make(PruneSpec)
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		sep := strings.IndexAny(pair, ":@")
		if sep <= 0 || sep == len(pair)-1 {
			return nil, fmt.Errorf("%w: bad prune pair %q", ErrInvalid, pair)
		}
		hi, lo := pair[:sep], pair[sep+1:]
		spec[hi] = append(spec[hi], lo)
	}
	return spec, nil
}

// vertexBlock is the slab granularity of AddVertex: vertices are carved
// out of fixed-capacity blocks so a million-vertex build is ~4k
// allocations of vertex storage instead of a million, and vertices created
// together sit together in memory in creation (≈pre-order) order.
const vertexBlock = 1024

// strBlockMin and strBlockMax bound the byte blocks of a strArena: the
// first block of a graph is small, each next one doubles, up to the cap.
const (
	strBlockMin = 4 << 10
	strBlockMax = 64 << 10
)

// strArena is an append-only store of strings carved from shared byte
// blocks: vertex names and containment paths cost no heap object each.
// Bytes once written are never rewritten — a string that does not fit
// starts a new block instead of growing the old one — so the strings
// handed out (unsafe.String over the block, the idiom strings.Builder
// uses) are immutable, and a block lives as long as any of them.
type strArena struct{ buf []byte }

// reserve makes the current block hold at least n more bytes.
func (a *strArena) reserve(n int) {
	if cap(a.buf)-len(a.buf) >= n {
		return
	}
	size := min(max(2*cap(a.buf), strBlockMin), strBlockMax)
	a.buf = make([]byte, 0, max(size, n))
}

// since returns the bytes appended from mark on as a string.
func (a *strArena) since(mark int) string {
	return unsafe.String(&a.buf[mark], len(a.buf)-mark)
}

// name returns typ followed by id in decimal, e.g. "node37".
func (a *strArena) name(typ string, id int64) string {
	a.reserve(len(typ) + 20)
	mark := len(a.buf)
	a.buf = append(a.buf, typ...)
	a.buf = strconv.AppendInt(a.buf, id, 10)
	return a.since(mark)
}

// path returns parent + "/" + name.
func (a *strArena) path(parent, name string) string {
	a.reserve(len(parent) + 1 + len(name))
	mark := len(a.buf)
	a.buf = append(a.buf, parent...)
	a.buf = append(a.buf, '/')
	a.buf = append(a.buf, name...)
	return a.since(mark)
}

// topoSlab is the struct-of-arrays resting representation of the
// containment tree: parallel flat arrays in pre-order, published behind an
// atomic pointer and immutable once stored. Child iteration, subtree
// scans (MarkDown, candidate collection), and interval tests all read
// consecutive slab entries instead of chasing per-vertex edge maps.
//
// order, kidOff, and kids are rank-indexed (rank = pre-order position);
// pre and post are UniqID-indexed with -1 marking vertices outside the
// tree at build time (detached, or added and not yet attached). The
// children of order[r] are kids[kidOff[r]:kidOff[r+1]], in sibling order.
type topoSlab struct {
	order  []*Vertex
	kids   []*Vertex
	kidOff []int32
	pre    []int32
	post   []int32
}

// Graph is the resource graph store. Build it with AddVertex/AddEdge (or
// the grug package), then Finalize before matching.
//
// A finalized Graph is safe for concurrent use: the topology (vertices,
// edges, paths, status bits) is read-mostly and guarded by an RWMutex —
// lookups and traversals take the reader side, while structural mutations
// (Attach, Detach, MarkDown, MarkUp) take the writer side and end by
// republishing the immutable topo slab. Allocation state lives in the
// per-vertex planners and filters, which hold no locks: the traverser that
// owns the graph is their single writer (see package planner), so
// Attach, Detach, MarkDown and MarkUp on a graph with a traverser go
// through that traverser.
type Graph struct {
	mu      sync.RWMutex
	base    int64
	horizon int64

	vertices []*Vertex
	vslab    []Vertex          // current AddVertex block (fixed capacity)
	pslab    []planner.Planner // Finalize-time contiguous planner slab
	nextUniq int64
	nextID   []int64       // next auto ID per resource type, by TypeID
	types    *intern.Table // resource type name -> dense TypeID
	strs     strArena      // vertex names and containment paths

	// aggs holds the containment-subtree unit totals of every interior
	// vertex, one row of aggW entries (indexed by TypeID) per vertex
	// (Vertex.agg). aggW is the type table's length when the rows were
	// laid out; types interned later read as 0 until Attach widens the
	// table. aggFree lists the rows of detached vertices for reuse.
	aggs    []int64
	aggW    int
	aggFree []int32

	// topo is the published containment slab; nil until Finalize.
	// Structural mutators rebuild and restore it under the writer lock;
	// readers load it once and iterate immutable arrays.
	topo atomic.Pointer[topoSlab]

	roots     map[string]*Vertex // subsystem -> root
	subsys    map[string]bool
	prune     PruneSpec
	finalized bool

	// multiParent records containment-link violations observed during
	// construction (a vertex offered a second parent); Finalize reports
	// them, matching the diagnostics of the edge-map representation.
	multiParent []*Vertex

	// Capacity-change sink (see delta.go). Atomic so the no-sink check on
	// publish hot paths (one delta per vertex on Cancel/Release) is a
	// single load, and registration never contends with topology reads.
	deltaSink atomic.Pointer[func(Delta)]

	// Publish boundary state (see epoch.go). epochVersion counts
	// publications; epochMu guards the bookkeeping below. Lock order: g.mu
	// (either side) before epochMu, never the reverse.
	epochVersion  atomic.Uint64
	structVersion atomic.Uint64
	statusGen     atomic.Uint64 // bumped by every status flip (see StatusGen)
	epochMu       sync.Mutex
	epochUnpub    bool    // something was marked since the last publish
	epochBatch    int     // open BeginEpochBatch nesting depth
	pendingDeltas []Delta // deltas buffered until the next publication
}

// NewGraph creates an empty store whose planners cover times in
// [base, base+horizon).
func NewGraph(base, horizon int64) *Graph {
	return &Graph{
		base:    base,
		horizon: horizon,
		types:   intern.NewTable(),
		roots:   make(map[string]*Vertex),
		subsys:  make(map[string]bool),
		prune:   make(PruneSpec),
	}
}

// Base returns the planners' first schedulable time.
func (g *Graph) Base() int64 { return g.base }

// Horizon returns the planners' schedulable duration.
func (g *Graph) Horizon() int64 { return g.horizon }

// Types returns the graph's resource type intern table. Every vertex's
// TypeID is assigned from it, and jobspecs compiled for matching
// against this graph must intern their types through it. The table is
// self-locking and never shrinks.
func (g *Graph) Types() *intern.Table { return g.types }

// UniqBound returns the exclusive upper bound of assigned vertex
// UniqIDs: every vertex satisfies 0 <= UniqID < UniqBound. The match
// kernel sizes its per-vertex scratch arrays with it. Callers must hold
// the reader lock (RLock) — the traverser reads it at the start of each
// match attempt, after taking the lock it holds for the whole walk.
func (g *Graph) UniqBound() int64 { return g.nextUniq }

// RLock takes the store's reader lock. Use it to bracket a multi-step
// sequence of topology reads that must observe a consistent graph — the
// traverser holds it for the duration of one match attempt so concurrent
// MarkDown/Attach/Detach cannot mutate the tree mid-walk. Single-call
// accessors (ByPath, Vertices, ...) lock themselves and must not be called
// while holding it.
func (g *Graph) RLock() { g.mu.RLock() }

// RUnlock releases the reader lock taken by RLock.
func (g *Graph) RUnlock() { g.mu.RUnlock() }

// SetPruneSpec installs the pruning-filter configuration. It must be called
// before Finalize.
func (g *Graph) SetPruneSpec(spec PruneSpec) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.finalized {
		return fmt.Errorf("%w: prune spec must be set before Finalize", ErrInvalid)
	}
	g.prune = spec
	return nil
}

// AddVertex creates a pool vertex. id < 0 assigns the next per-type ID.
// size < 1 is rejected.
func (g *Graph) AddVertex(typ string, id, size int64) (*Vertex, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if typ == "" || size < 1 {
		return nil, fmt.Errorf("%w: type=%q size=%d", ErrInvalid, typ, size)
	}
	tid := g.types.ID(typ)
	for int(tid) >= len(g.nextID) {
		g.nextID = append(g.nextID, 0)
	}
	if id < 0 {
		id = g.nextID[tid]
	}
	if id >= g.nextID[tid] {
		g.nextID[tid] = id + 1
	}
	// Carve the vertex out of the current slab block. Blocks have fixed
	// capacity and are never reallocated, so &g.vslab[i] stays valid.
	if len(g.vslab) == cap(g.vslab) {
		g.vslab = make([]Vertex, 0, vertexBlock)
	}
	g.vslab = append(g.vslab, Vertex{
		UniqID: g.nextUniq,
		Type:   typ,
		TypeID: tid,
		ID:     id,
		Name:   g.strs.name(typ, id),
		Size:   size,
		graph:  g,
	})
	v := &g.vslab[len(g.vslab)-1]
	g.nextUniq++
	g.vertices = append(g.vertices, v)
	return v, nil
}

// MustAddVertex is AddVertex but panics on error; for tests and static
// construction.
func (g *Graph) MustAddVertex(typ string, id, size int64) *Vertex {
	v, err := g.AddVertex(typ, id, size)
	if err != nil {
		panic(err)
	}
	return v
}

// AddEdge creates a directed edge in a subsystem. Containment edges
// (either direction of the contains/in pair) are interpreted as tree
// links; overlay subsystems store Edge values. On a finalized graph the
// edge is live at once, so it moves the structural generation like any
// other topology change.
func (g *Graph) AddEdge(from, to *Vertex, subsystem, edgeType string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.addEdge(from, to, subsystem, edgeType); err != nil {
		return err
	}
	if g.finalized {
		g.markEpochAllLocked()
		g.PublishEpoch()
	}
	return nil
}

// addEdge is AddEdge without locking; callers hold g.mu.
func (g *Graph) addEdge(from, to *Vertex, subsystem, edgeType string) error {
	if from == nil || to == nil || subsystem == "" {
		return fmt.Errorf("%w: bad edge", ErrInvalid)
	}
	if from.graph != g || to.graph != g {
		return fmt.Errorf("%w: edge endpoints from another graph", ErrInvalid)
	}
	g.subsys[subsystem] = true
	if subsystem == Containment {
		// Map the conventional edge pair onto the intrusive tree: a
		// contains-typed (or untyped) edge links from→to, the
		// reciprocal in-typed edge links to→from. Re-stating an
		// existing link (loaders emit both directions) is a no-op; a
		// second distinct parent is recorded for Finalize to report.
		parent, child := from, to
		if edgeType == EdgeIn {
			parent, child = to, from
		}
		if child.parent == parent {
			return nil
		}
		if child.parent != nil {
			g.multiParent = append(g.multiParent, child)
			return nil
		}
		parent.linkChild(child)
		return nil
	}
	e := &Edge{From: from, To: to, Subsystem: subsystem, Type: edgeType}
	from.overlay.Store(overlayAppend(from.overlay.Load(), subsystem, e, true))
	to.overlay.Store(overlayAppend(to.overlay.Load(), subsystem, e, false))
	return nil
}

// overlayAppend returns a fresh overlay with e appended to the outgoing
// (out=true) or incoming adjacency of sub; the input overlay and its
// slices are left untouched for concurrent lock-free readers.
func overlayAppend(ov *overlayEdges, sub string, e *Edge, out bool) *overlayEdges {
	no := &overlayEdges{out: copyEdgeMap(nil), in: copyEdgeMap(nil)}
	if ov != nil {
		no.out = copyEdgeMap(ov.out)
		no.in = copyEdgeMap(ov.in)
	}
	m := no.in
	if out {
		m = no.out
	}
	old := m[sub]
	ns := make([]*Edge, len(old), len(old)+1)
	copy(ns, old)
	m[sub] = append(ns, e)
	return no
}

// copyEdgeMap returns a fresh map sharing m's slices.
func copyEdgeMap(m map[string][]*Edge) map[string][]*Edge {
	nm := make(map[string][]*Edge, len(m)+1)
	for k, s := range m {
		nm[k] = s
	}
	return nm
}

// AddContainment links parent and child in the containment subsystem with
// the conventional contains/in edge pair.
func (g *Graph) AddContainment(parent, child *Vertex) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addContainment(parent, child)
}

// addContainment is AddContainment without locking; callers hold g.mu.
func (g *Graph) addContainment(parent, child *Vertex) error {
	if child.parent != nil {
		return fmt.Errorf("%w: %s already has a containment parent", ErrInvalid, child.Name)
	}
	if parent == nil || parent.graph != g || child.graph != g {
		return fmt.Errorf("%w: bad edge", ErrInvalid)
	}
	g.subsys[Containment] = true
	parent.linkChild(child)
	return nil
}

// Subsystems returns the subsystem names present in the graph, sorted.
func (g *Graph) Subsystems() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.subsys))
	for s := range g.subsys {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Root returns the root vertex of a subsystem (set by Finalize for
// containment, or explicitly by SetRoot).
func (g *Graph) Root(subsystem string) *Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.roots[subsystem]
}

// SetRoot declares the root of a non-containment subsystem.
func (g *Graph) SetRoot(subsystem string, v *Vertex) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.roots[subsystem] = v
}

// Vertices returns all vertices in creation order. The slice is live; do
// not modify.
func (g *Graph) Vertices() []*Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.vertices
}

// Len returns the vertex count.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.vertices)
}

// ByPath resolves a containment path such as "/cluster0/rack1/node3":
// it descends the published topo slab from the root, at each level into
// a child whose path is a prefix of the target ending at the target's end
// or at a "/". Components are never split on "/", so "rack1" never
// matches "rack10" and a name containing "/" resolves exactly. Should two
// vertices share a path, the later in pre-order wins.
func (g *Graph) ByPath(path string) *Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ts := g.topo.Load()
	if ts == nil {
		return nil
	}
	return ts.find(ts.order[0], path)
}

// find returns the vertex at path in v's subtree, or nil. Children are
// tried last first, so the later of two vertices sharing a path wins.
func (ts *topoSlab) find(v *Vertex, path string) *Vertex {
	p := v.path
	if len(path) < len(p) || path[:len(p)] != p {
		return nil
	}
	if len(path) == len(p) {
		return v
	}
	if path[len(p)] != '/' {
		return nil // "rack1" against "/rack10": prune without descending
	}
	r := ts.pre[v.UniqID]
	kids := ts.kids[ts.kidOff[r]:ts.kidOff[r+1]]
	for i := len(kids) - 1; i >= 0; i-- {
		if x := ts.find(kids[i], path); x != nil {
			return x
		}
	}
	return nil
}

// ByType returns all vertices of the given type, in creation order.
func (g *Graph) ByType(typ string) []*Vertex {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Vertex
	for _, v := range g.vertices {
		if v.Type == typ {
			out = append(out, v)
		}
	}
	return out
}

// Finalize validates the containment tree, computes paths and subtree
// aggregates, creates per-vertex planners (carved from one contiguous
// slab), installs pruning filters per the PruneSpec, and publishes the
// pre-order topo slab. It must be called exactly once after construction.
func (g *Graph) Finalize() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.finalized {
		return fmt.Errorf("%w: already finalized", ErrInvalid)
	}
	if len(g.vertices) == 0 {
		return fmt.Errorf("%w: empty graph", ErrInvalid)
	}
	if len(g.multiParent) > 0 {
		return fmt.Errorf("%w: %s has multiple containment parents", ErrInvalid, g.multiParent[0].Name)
	}
	// Identify the containment root: the unique parentless vertex.
	var root *Vertex
	for _, v := range g.vertices {
		if v.parent == nil {
			if root != nil {
				return fmt.Errorf("%w: multiple containment roots (%s, %s)", ErrInvalid, root.Name, v.Name)
			}
			root = v
		}
	}
	if root == nil {
		return fmt.Errorf("%w: no containment root (cycle?)", ErrInvalid)
	}
	g.roots[Containment] = root
	g.subsys[Containment] = true

	// One contiguous planner slab for the whole build; Attach-time grafts
	// fall back to individual allocation. The aggregate table gets one
	// row per interior vertex, one column per type interned so far.
	g.pslab = make([]planner.Planner, len(g.vertices))
	interior := 0
	for _, v := range g.vertices {
		if v.kidHead != nil {
			interior++
		}
	}
	g.aggW = g.types.Len()
	g.aggs = make([]int64, 0, interior*g.aggW)
	reached := 0
	err := g.finalizeSubtree(root, "", make([]bool, g.nextUniq), &reached)
	g.pslab = nil
	if err != nil {
		return err
	}
	if reached != len(g.vertices) {
		return fmt.Errorf("%w: %d vertices unreachable from containment root", ErrInvalid, len(g.vertices)-reached)
	}
	// Filters are installed with the subtree's structural capacity; any
	// vertex loaded already down (e.g. from a JGF/GraphML dump of a
	// degraded system) must have its units excluded from ancestor
	// aggregates, exactly as a live MarkDown would have done.
	if err := g.excludeDown(root); err != nil {
		return err
	}
	g.buildTopoLocked()
	g.finalized = true
	g.bootstrapEpochLocked()
	return nil
}

// buildTopoLocked compiles the intrusive tree links into a fresh immutable
// topo slab — pre-order vertex array, grouped child array, and interval
// labels — and publishes it. It also refreshes the per-vertex treeIn/
// treeOut mirror the O(1) InSubtreeOf test reads. Finalize, Attach, and
// Detach call it under the writer lock.
func (g *Graph) buildTopoLocked() {
	root := g.roots[Containment]
	if root == nil {
		return
	}
	n := len(g.vertices)
	ts := &topoSlab{
		order:  make([]*Vertex, 0, n),
		kids:   make([]*Vertex, 0, n),
		kidOff: make([]int32, 1, n+1),
		pre:    make([]int32, g.nextUniq),
		post:   make([]int32, g.nextUniq),
	}
	for i := range ts.pre {
		ts.pre[i] = -1
	}
	var walk func(v *Vertex)
	walk = func(v *Vertex) {
		r := int32(len(ts.order))
		ts.order = append(ts.order, v)
		ts.pre[v.UniqID] = r
		v.treeIn = r
		// Children are appended at their parent's visit, and ranks are
		// visited in increasing order, so kids stays grouped by rank.
		for c := v.kidHead; c != nil; c = c.nextSib {
			ts.kids = append(ts.kids, c)
		}
		ts.kidOff = append(ts.kidOff, int32(len(ts.kids)))
		for c := v.kidHead; c != nil; c = c.nextSib {
			walk(c)
		}
		end := int32(len(ts.order))
		ts.post[v.UniqID] = end
		v.treeOut = end
	}
	walk(root)
	g.topo.Store(ts)
}

// MarkDown marks the containment subtree rooted at v down and subtracts the
// transitioned capacity from every ancestor pruning filter, mirroring the
// scheduler-driven filter update (paper §3.4, §5.5). Vertices already down
// contribute nothing, so nested failure domains never double-count. It
// returns the per-type units newly taken out of service.
//
// Callers must first release any allocations whose grants lie in the
// subtree (see traverser.Evict); live spans there would leave an ancestor
// filter with less headroom than the capacity being removed.
func (g *Graph) MarkDown(v *Vertex) (map[string]int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delta, err := g.setSubtreeStatus(v, StatusDown)
	if err == nil && len(delta) > 0 {
		g.publishStructural(v)
		g.PublishEpoch()
	}
	return delta, err
}

// MarkUp marks the containment subtree rooted at v up and re-adds the
// transitioned capacity to every ancestor pruning filter. It is the inverse
// of MarkDown; repairing a vertex repairs everything it contains. It
// returns the per-type units newly returned to service.
func (g *Graph) MarkUp(v *Vertex) (map[string]int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delta, err := g.setSubtreeStatus(v, StatusUp)
	if err == nil && len(delta) > 0 {
		g.publishStructural(v)
		g.PublishEpoch()
	}
	return delta, err
}

// setSubtreeStatus flips every vertex in v's subtree whose status differs
// from want and propagates the net capacity change to ancestor filters.
// The subtree walk is a sequential scan of the topo slab's pre-order
// interval — the whole failure domain sits in consecutive entries.
func (g *Graph) setSubtreeStatus(v *Vertex, want Status) (map[string]int64, error) {
	if !g.finalized {
		return nil, ErrNotFinalized
	}
	if v == nil || v.graph != g {
		return nil, fmt.Errorf("%w: foreign or nil vertex", ErrInvalid)
	}
	delta := make(map[string]int64)
	var flipped []*Vertex
	flip := func(x *Vertex) {
		if x.Status != want {
			x.Status = want
			delta[x.Type] += x.Size
			flipped = append(flipped, x)
		}
	}
	if ts := g.topo.Load(); ts != nil && v.UniqID < int64(len(ts.pre)) && ts.pre[v.UniqID] >= 0 {
		for i := ts.pre[v.UniqID]; i < ts.post[v.UniqID]; i++ {
			flip(ts.order[i])
		}
	} else {
		// Vertex outside the published slab (e.g. grafted but not yet
		// attached): fall back to the intrusive links.
		var walk func(x *Vertex)
		walk = func(x *Vertex) {
			flip(x)
			for c := x.kidHead; c != nil; c = c.nextSib {
				walk(c)
			}
		}
		walk(v)
	}
	if len(delta) == 0 {
		return delta, nil // already in the requested state
	}
	sign, was := int64(1), StatusDown
	if want == StatusDown {
		sign, was = -1, StatusUp
	}
	// Propagate each transitioned vertex individually so filters interior
	// to the subtree (a node's own core aggregate, a rack's node
	// aggregate) stay consistent too. This makes nested transitions
	// compose — MarkDown(node) then MarkUp(rack) restores the rack's own
	// filter exactly — and matches what Finalize computes when a dump of
	// a degraded system is reloaded.
	g.MarkEpochDirty()
	for i, x := range flipped {
		stop, err := g.propagateStatusDelta(x.Parent(), nil, x.TypeID, sign*x.Size)
		if err == nil {
			continue
		}
		// A filter cannot give the capacity up (a span planned on a
		// vertex already down holds it). The flip is all or nothing:
		// growing back what was shrunk cannot fail, and the statuses
		// return to what they were.
		_, _ = g.propagateStatusDelta(x.Parent(), stop, x.TypeID, -sign*x.Size)
		for _, y := range flipped[:i] {
			_, _ = g.propagateStatusDelta(y.Parent(), nil, y.TypeID, -sign*y.Size)
		}
		for _, y := range flipped {
			y.Status = was
		}
		return nil, err
	}
	g.statusGen.Add(1)
	return delta, nil
}

// propagateStatusDelta applies a capacity change of n units of type id to
// every filter on the ancestor chain from a (inclusive) up to stop
// (exclusive; nil for the whole chain). Filters that do not track the type
// are skipped. On error it returns the vertex whose filter refused, having
// changed every filter beneath it.
func (g *Graph) propagateStatusDelta(a, stop *Vertex, id int32, n int64) (*Vertex, error) {
	for ; a != stop; a = a.Parent() {
		if a.filter.PlannerByID(id) == nil {
			continue
		}
		if err := a.filter.Update(id, n); err != nil {
			return a, fmt.Errorf("resgraph: status update at %s: %w", a.Name, err)
		}
		g.MarkEpochDirty()
	}
	return nil, nil
}

// newPlanner returns an initialized planner for v, carved from the
// Finalize slab when one is open, otherwise individually allocated
// (Attach-time grafts).
func (g *Graph) newPlanner(v *Vertex) (*planner.Planner, error) {
	if len(g.pslab) > 0 {
		p := &g.pslab[0]
		g.pslab = g.pslab[1:]
		if err := planner.Init(p, g.base, g.horizon, v.Size, v.Type); err != nil {
			return nil, err
		}
		return p, nil
	}
	return planner.New(g.base, g.horizon, v.Size, v.Type)
}

// finalizeSubtree computes the path, planner, aggregates, and filter for v
// and its containment descendants, marking each in seen (indexed by
// UniqID) and counting it in *reached. Paths are written into the graph's
// string blocks. Leaves store no aggregate row — their trivial singleton
// aggregate is synthesized on demand — so the per-vertex resting cost of
// the (majority) leaf population stays flat.
func (g *Graph) finalizeSubtree(v *Vertex, parentPath string, seen []bool, reached *int) error {
	if seen[v.UniqID] {
		return fmt.Errorf("%w: containment cycle through %s", ErrInvalid, v.Name)
	}
	seen[v.UniqID] = true
	*reached++
	v.path = g.strs.path(parentPath, v.Name)
	if v.plan == nil {
		p, err := g.newPlanner(v)
		if err != nil {
			return fmt.Errorf("planner for %s: %w", v.Name, err)
		}
		v.plan = p
	}
	if v.kidHead == nil {
		return nil // leaf: no aggregate row, no filter
	}
	g.newAggRow(v)
	for c := v.kidHead; c != nil; c = c.nextSib {
		if err := g.finalizeSubtree(c, v.path, seen, reached); err != nil {
			return err
		}
		g.addAggs(v, c, 1)
	}
	return g.installFilter(v)
}

// newAggRow gives v a zeroed aggregate row holding only v itself, reusing
// a detached vertex's row when one is free.
func (g *Graph) newAggRow(v *Vertex) {
	if n := len(g.aggFree); n > 0 {
		v.agg = g.aggFree[n-1]
		g.aggFree = g.aggFree[:n-1]
		clear(g.aggRow(v))
	} else {
		g.aggs = append(g.aggs, make([]int64, g.aggW)...)
		v.agg = int32(len(g.aggs) / g.aggW)
	}
	g.aggRow(v)[v.TypeID] = v.Size
}

// aggRow returns v's aggregate row, or nil for a vertex without one. The
// slice aliases the table until the next newAggRow or widenAggs.
func (g *Graph) aggRow(v *Vertex) []int64 {
	if v.agg == 0 {
		return nil
	}
	i := int(v.agg-1) * g.aggW
	return g.aggs[i : i+g.aggW : i+g.aggW]
}

// addAggs adds sign times c's subtree totals to a's row.
func (g *Graph) addAggs(a, c *Vertex, sign int64) {
	row := g.aggRow(a)
	if c.agg == 0 {
		row[c.TypeID] += sign * c.Size
		return
	}
	for id, n := range g.aggRow(c) {
		row[id] += sign * n
	}
}

// widenAggs lays the aggregate table out again with one column per type
// interned so far, so types interned since (by a graft's AddVertex) can
// be counted.
func (g *Graph) widenAggs() {
	w := g.types.Len()
	if w <= g.aggW {
		return
	}
	rows := 0
	if g.aggW > 0 {
		rows = len(g.aggs) / g.aggW
	}
	wide := make([]int64, rows*w)
	for r := 0; r < rows; r++ {
		copy(wide[r*w:], g.aggs[r*g.aggW:(r+1)*g.aggW])
	}
	g.aggs, g.aggW = wide, w
}

// pruneTracks calls fn once with the ID of every interned type the
// PruneSpec has a vertex of v's type track, its own type excepted. A type
// listed twice (under v's type and under ALL, say) is passed once.
func (g *Graph) pruneTracks(v *Vertex, fn func(id int32) error) error {
	lists := [2][]string{g.prune[v.Type], g.prune[ALL]}
	for k, list := range lists {
		for i, lo := range list {
			if lo == v.Type || slices.Contains(list[:i], lo) || k == 1 && slices.Contains(lists[0], lo) {
				continue
			}
			if id, ok := g.types.Lookup(lo); ok {
				if err := fn(id); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// installFilter installs a pruning filter on v if the PruneSpec selects its
// type, tracking the configured low types present in v's subtree.
func (g *Graph) installFilter(v *Vertex) error {
	if v.kidHead == nil {
		return nil // leaves carry no filters
	}
	tracked := make(map[int32]int64)
	_ = g.pruneTracks(v, func(id int32) error { // never fails: fn returns nil
		if n := v.AggregateOf(id); n > 0 {
			tracked[id] = n
		}
		return nil
	})
	if len(tracked) == 0 {
		v.filter = nil
		return nil
	}
	m, err := planner.NewMulti(g.base, g.horizon, tracked)
	if err != nil {
		return fmt.Errorf("filter for %s: %w", v.Name, err)
	}
	v.filter = m
	return nil
}

// Attach grafts a subtree built after Finalize onto parent (elasticity,
// paper §5.5): sub and its descendants get paths, planners, aggregates,
// and filters, and every ancestor's aggregates and filters grow to match.
func (g *Graph) Attach(parent, sub *Vertex) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.finalized {
		return ErrNotFinalized
	}
	if parent.graph != g || sub.graph != g {
		return fmt.Errorf("%w: foreign vertex", ErrInvalid)
	}
	if parent.path == "" {
		return fmt.Errorf("%w: parent %s not attached", ErrInvalid, parent.Name)
	}
	if sub.parent != nil {
		return fmt.Errorf("%w: %s already attached", ErrInvalid, sub.Name)
	}
	if err := g.addContainment(parent, sub); err != nil {
		return err
	}
	g.widenAggs()
	var reached int
	if err := g.finalizeSubtree(sub, parent.path, make([]bool, g.nextUniq), &reached); err != nil {
		return err
	}
	// Propagate aggregate growth to ancestors and their filters. A parent
	// that was a leaf becomes interior and gains its aggregate row here.
	if parent.agg == 0 {
		g.newAggRow(parent)
	}
	for a := parent; a != nil; a = a.Parent() {
		g.addAggs(a, sub, 1)
		if err := g.growFilter(a, sub); err != nil {
			return err
		}
	}
	// A vertex marked down before the graft gives its units back.
	if err := g.excludeDown(sub); err != nil {
		return err
	}
	g.buildTopoLocked()
	g.publishStructural(parent)
	g.markEpochAllLocked()
	g.PublishEpoch()
	return nil
}

// excludeDown takes the units of every down vertex in x's subtree out of
// the filters above it.
func (g *Graph) excludeDown(x *Vertex) (err error) {
	if x.Status == StatusDown {
		_, err = g.propagateStatusDelta(x.Parent(), nil, x.TypeID, -x.Size)
	}
	for c := x.kidHead; c != nil && err == nil; c = c.nextSib {
		err = g.excludeDown(c)
	}
	return err
}

// growFilter updates (or installs) a's filter after the subtree rooted at
// sub joined a's.
func (g *Graph) growFilter(a, sub *Vertex) error {
	if a.filter == nil {
		// Install a filter if the spec now selects this vertex.
		return g.installFilter(a)
	}
	return g.pruneTracks(a, func(id int32) error {
		if n := sub.AggregateOf(id); n > 0 {
			return a.filter.Update(id, n)
		}
		return nil
	})
}

// Detach prunes the subtree rooted at v from the graph (elasticity). It
// fails with ErrBusy if any planner in the subtree holds live spans. The
// detached subtree keeps its intrusive links, so it stays enumerable, but
// it leaves the topo slab (which ByPath walks) on the rebuild below.
func (g *Graph) Detach(v *Vertex) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.finalized {
		return ErrNotFinalized
	}
	parent := v.Parent()
	if parent == nil {
		return fmt.Errorf("%w: cannot detach the root", ErrInvalid)
	}
	// The subtree's in-service capacity per type is what ancestor filters
	// hold for it; down vertices were already subtracted by MarkDown.
	var busy error
	up := make(map[int32]int64)
	var check func(x *Vertex)
	check = func(x *Vertex) {
		if busy != nil {
			return
		}
		if x.plan != nil && x.plan.SpanCount() > 0 {
			busy = fmt.Errorf("%w: %s has %d live spans", ErrBusy, x.Name, x.plan.SpanCount())
			return
		}
		if x.Status == StatusUp {
			up[x.TypeID] += x.Size
		}
		for c := x.kidHead; c != nil; c = c.nextSib {
			check(c)
		}
	}
	check(v)
	// Every ancestor filter must be able to give that capacity up before
	// anything changes, so a refused detach leaves the graph as it was.
	for a := parent; a != nil && busy == nil; a = a.Parent() {
		for id, n := range up {
			if p := a.filter.PlannerByID(id); p != nil {
				if avail, err := p.AvailDuring(g.base, g.horizon); err != nil || avail < n {
					busy = fmt.Errorf("%w: %s filter cannot release %d %s", ErrBusy, a.Name, n, g.types.Name(id))
				}
			}
		}
	}
	if busy != nil {
		return busy
	}
	// Shrink ancestor aggregates and filters.
	for a := parent; a != nil; a = a.Parent() {
		g.addAggs(a, v, -1)
		for id, n := range up {
			if a.filter.PlannerByID(id) != nil {
				if err := a.filter.Update(id, -n); err != nil {
					return err
				}
			}
		}
	}
	parent.unlinkChild(v)
	// Detach the subtree's vertices: they lose their paths, and their
	// aggregate rows go back to the table for the next Attach.
	var drop func(x *Vertex)
	drop = func(x *Vertex) {
		x.path = ""
		if x.agg != 0 {
			g.aggFree = append(g.aggFree, x.agg)
			x.agg = 0
		}
		for c := x.kidHead; c != nil; c = c.nextSib {
			drop(c)
		}
		x.graph = nil
	}
	drop(v)
	kept := g.vertices[:0]
	for _, x := range g.vertices {
		if x.graph == g {
			kept = append(kept, x)
		}
	}
	g.vertices = kept
	g.buildTopoLocked()
	g.publishStructural(parent)
	g.markEpochAllLocked()
	g.PublishEpoch()
	return nil
}

// Finalized reports whether Finalize succeeded.
func (g *Graph) Finalized() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.finalized
}

// Stats summarizes the store: vertex counts per type and filter count.
func (g *Graph) Stats() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	counts := make(map[string]int)
	filters := 0
	for _, v := range g.vertices {
		counts[v.Type]++
		if v.filter != nil {
			filters++
		}
	}
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	var b strings.Builder
	fmt.Fprintf(&b, "%d vertices (", len(g.vertices))
	for i, t := range types {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", t, counts[t])
	}
	fmt.Fprintf(&b, "), %d pruning filters", filters)
	return b.String()
}
