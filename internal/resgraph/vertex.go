// Package resgraph implements Fluxion's graph-based resource store (paper
// §3): a directed graph whose vertices are resource pools and whose typed
// edges, grouped into named subsystems, express relationships such as
// containment or power feeds.
//
// Each vertex carries a Planner tracking its pool's availability over time,
// and selected vertices carry a PlannerMulti pruning filter summarizing the
// aggregate availability of chosen lower-level resource types in their
// containment subtree (paper §3.4). The containment subsystem must form a
// tree; other subsystems may form arbitrary overlays sharing the same
// vertices (paper §3.3, graph filtering).
//
// The resting representation is struct-of-arrays: the containment tree is
// published as one immutable slab of parallel arrays in pre-order (see
// topoSlab in graph.go), so child iteration, subtree status flips, and
// candidate scans are sequential reads instead of pointer chases through
// per-vertex edge maps. Vertices keep only intrusive sibling links for
// construction and elasticity; Edge values for the containment subsystem
// are synthesized on demand for export paths.
package resgraph

import (
	"sync/atomic"

	"fluxion/internal/planner"
)

// Containment is the default subsystem name: the physical containment
// hierarchy every scheduler walks.
const Containment = "containment"

// Common edge type names.
const (
	EdgeContains = "contains" // parent -> child in containment
	EdgeIn       = "in"       // child -> parent in containment
)

// Status describes whether a vertex is schedulable.
type Status int

const (
	// StatusUp marks a schedulable vertex.
	StatusUp Status = iota
	// StatusDown excludes the vertex (and, for containment, its
	// subtree) from matching.
	StatusDown
)

func (s Status) String() string {
	if s == StatusDown {
		return "down"
	}
	return "up"
}

// Vertex is a resource pool: Size interchangeable units of one Type.
// Singleton resources (a core, a node) are pools of size one.
type Vertex struct {
	// UniqID is the graph-wide unique identifier, assigned at AddVertex
	// in creation order. It indexes the graph's uniq-indexed slabs.
	UniqID int64
	// ID is the logical per-type identifier (e.g. node 37). Match
	// policies such as highest-ID-first order candidates by it.
	ID int64
	// Size is the pool size in schedulable units (1 for singletons,
	// e.g. 16 for a 16 GB memory pool).
	Size int64
	// Type is the resource type name ("cluster", "rack", "node",
	// "core", "memory", ...).
	Type string
	// Name is the display name, e.g. "node37". Its bytes live in one of
	// the graph's shared string blocks.
	Name string
	// Unit optionally names the unit ("GB").
	Unit string
	// Properties holds free-form labels, e.g. "perfclass" -> "3" for
	// variation-aware scheduling (paper §5.2). Nil until the first
	// SetProperty.
	Properties map[string]string
	// Status gates schedulability.
	Status Status

	// path is the containment path from the root, e.g.
	// "/cluster0/rack2/node37"; empty until Finalize (or Attach) and
	// after Detach. Its bytes live in one of the graph's shared string
	// blocks, so it costs one header, not a heap object.
	path string

	plan   *planner.Planner
	filter *planner.Multi

	// Intrusive containment-tree links, guarded by the graph's writer
	// lock. They are the authoritative builder topology; Finalize,
	// Attach, and Detach compile them into the published topo slab that
	// readers iterate. Hot paths never chase these.
	parent  *Vertex
	kidHead *Vertex
	kidTail *Vertex
	nextSib *Vertex

	// overlay publishes the vertex's non-containment adjacency for
	// lock-free readers; nil while the vertex participates in no overlay
	// subsystem, which at rest is nearly all of them. Post-Finalize
	// mutations are copy-on-write.
	overlay atomic.Pointer[overlayEdges]

	graph *Graph

	// TypeID is Type interned in the graph's type table (Graph.Types),
	// assigned at AddVertex. The match kernel compares it instead of
	// Type so type checks are integer compares. (The 4-byte fields sit
	// together at the tail so the struct packs without internal padding
	// — govet's fieldalignment check enforces this.)
	TypeID int32

	// agg is 1 + the vertex's row in the graph's aggregate table
	// (Graph.aggs): its containment-subtree unit totals by TypeID. 0 on
	// leaves, which store no row, and on detached vertices.
	agg int32

	// treeIn/treeOut are pre-order interval labels over the containment
	// tree, maintained by Finalize, Attach, and Detach: u contains v
	// exactly when treeIn[u] <= treeIn[v] < treeOut[u]. treeIn is also
	// the vertex's rank in the published topo slab. The match kernel
	// uses them for O(1) subtree tests when invalidating cached
	// candidate lists.
	treeIn, treeOut int32
}

// Edge is a directed, typed relationship between two vertices within one
// named subsystem. Containment edges are synthesized on demand from the
// tree links; overlay edges are stored.
type Edge struct {
	From, To  *Vertex
	Subsystem string
	Type      string
}

// overlayEdges is an immutable adjacency snapshot for non-containment
// subsystems: once published in Vertex.overlay, neither the maps nor the
// slices they hold are ever mutated again (post-Finalize mutations go
// through copy-on-write in graph.go).
type overlayEdges struct {
	out map[string][]*Edge
	in  map[string][]*Edge
}

// Planner returns the vertex's availability planner (nil until the graph
// is finalized).
func (v *Vertex) Planner() *planner.Planner { return v.plan }

// Filter returns the vertex's pruning filter, or nil if none is installed.
func (v *Vertex) Filter() *planner.Multi { return v.filter }

// Aggregates returns a fresh map of the containment-subtree unit totals
// per resource type (including the vertex itself), leaving out types
// with none. It is for cold callers; hot paths read AggregateOf. A leaf,
// or a detached vertex, reports only itself.
func (v *Vertex) Aggregates() map[string]int64 {
	if v.agg == 0 {
		return map[string]int64{v.Type: v.Size}
	}
	g := v.graph
	m := make(map[string]int64)
	for id, n := range g.aggRow(v) {
		if n != 0 {
			m[g.types.Name(int32(id))] = n
		}
	}
	return m
}

// AggregateOf returns the containment-subtree units of the type with
// the given ID (from the graph's Types table), the vertex itself
// included. A type interned after Finalize reads 0 until an Attach of a
// subtree holding it. Like the rest of the topology, it must not race
// with Attach or Detach: callers hold the graph's reader lock or are
// serialized with those mutators some other way (the traverser's lock).
func (v *Vertex) AggregateOf(id int32) int64 {
	if v.agg == 0 {
		if id == v.TypeID {
			return v.Size
		}
		return 0
	}
	g := v.graph
	if id < 0 || int(id) >= g.aggW {
		return 0
	}
	return g.aggs[int(v.agg-1)*g.aggW+int(id)]
}

// Path returns the vertex's containment path.
func (v *Vertex) Path() string { return v.path }

// String returns the vertex's containment path, or its name if the graph
// is not finalized yet.
func (v *Vertex) String() string {
	if v.path != "" {
		return v.path
	}
	return v.Name
}

// topoKids returns the vertex's containment children as a shared slice
// view into the published topo slab, and whether the slab covers the
// vertex. The view is immutable and safe to read lock-free.
func (v *Vertex) topoKids() ([]*Vertex, bool) {
	g := v.graph
	if g == nil {
		return nil, false
	}
	ts := g.topo.Load()
	if ts == nil || v.UniqID >= int64(len(ts.pre)) {
		return nil, false
	}
	r := ts.pre[v.UniqID]
	if r < 0 {
		return nil, false
	}
	return ts.kids[ts.kidOff[r]:ts.kidOff[r+1]], true
}

// Kids returns v's children in the subsystem as a shared, read-only slice.
// For containment on a finalized graph this is a zero-copy view into the
// topo slab — the match kernel's child iteration is a sequential scan of
// one shared array. Vertices outside the slab (pre-Finalize, detached
// subtrees, grafts not yet attached) and overlay subsystems build a fresh
// slice. Callers must not modify the result.
func (v *Vertex) Kids(subsystem string) []*Vertex {
	if subsystem == Containment {
		if kids, ok := v.topoKids(); ok {
			return kids
		}
		var out []*Vertex
		for c := v.kidHead; c != nil; c = c.nextSib {
			out = append(out, c)
		}
		return out
	}
	var out []*Vertex
	if ov := v.overlay.Load(); ov != nil {
		for _, e := range ov.out[subsystem] {
			if e.Type != EdgeIn {
				out = append(out, e.To)
			}
		}
	}
	return out
}

// Children returns the vertices reachable by one downward outgoing edge in
// the given subsystem (reciprocal "in" edges are skipped).
func (v *Vertex) Children(subsystem string) []*Vertex {
	kids := v.Kids(subsystem)
	if len(kids) == 0 {
		return nil
	}
	out := make([]*Vertex, len(kids))
	copy(out, kids)
	return out
}

// EachChild calls fn for every downward child in the subsystem, stopping
// early if fn returns false. For containment it iterates the topo slab
// without allocating.
func (v *Vertex) EachChild(subsystem string, fn func(c *Vertex) bool) {
	if subsystem == Containment {
		if kids, ok := v.topoKids(); ok {
			for _, c := range kids {
				if !fn(c) {
					return
				}
			}
			return
		}
		for c := v.kidHead; c != nil; c = c.nextSib {
			if !fn(c) {
				return
			}
		}
		return
	}
	for _, c := range v.Kids(subsystem) {
		if !fn(c) {
			return
		}
	}
}

// ChildCount returns the number of downward children in the subsystem
// without materializing the slice Children builds.
func (v *Vertex) ChildCount(subsystem string) int {
	if subsystem == Containment {
		if kids, ok := v.topoKids(); ok {
			return len(kids)
		}
		n := 0
		for c := v.kidHead; c != nil; c = c.nextSib {
			n++
		}
		return n
	}
	return len(v.Kids(subsystem))
}

// HasChildren reports whether v has at least one downward child in the
// subsystem — the allocation-free leaf test used by the match kernel.
func (v *Vertex) HasChildren(subsystem string) bool {
	if subsystem == Containment {
		if kids, ok := v.topoKids(); ok {
			return len(kids) > 0
		}
		return v.kidHead != nil
	}
	if ov := v.overlay.Load(); ov != nil {
		for _, e := range ov.out[subsystem] {
			if e.Type != EdgeIn {
				return true
			}
		}
	}
	return false
}

// InSubtreeOf reports whether v lies in the containment subtree rooted
// at root (inclusive), in O(1) via the pre-order interval labels
// maintained by Finalize, Attach, and Detach. Before Finalize all labels
// are zero and the result is meaningless.
func (v *Vertex) InSubtreeOf(root *Vertex) bool {
	return root.treeIn <= v.treeIn && v.treeIn < root.treeOut
}

// Parent returns the vertex's unique containment parent, or nil for roots.
func (v *Vertex) Parent() *Vertex { return v.parent }

// InEdges returns the incoming edges in the subsystem. Overlay subsystems
// return the stored slice; containment edges are synthesized from the tree
// links on each call (export/debug paths only — the match kernel iterates
// Kids instead).
func (v *Vertex) InEdges(subsystem string) []*Edge {
	if subsystem != Containment {
		if ov := v.overlay.Load(); ov != nil {
			return ov.in[subsystem]
		}
		return nil
	}
	var out []*Edge
	if p := v.parent; p != nil {
		out = append(out, &Edge{From: p, To: v, Subsystem: Containment, Type: EdgeContains})
	}
	v.EachChild(Containment, func(c *Vertex) bool {
		out = append(out, &Edge{From: c, To: v, Subsystem: Containment, Type: EdgeIn})
		return true
	})
	return out
}

// OutEdges returns the outgoing edges in the subsystem. Overlay subsystems
// return the stored slice; containment edges are synthesized from the tree
// links on each call (export/debug paths only — the match kernel iterates
// Kids instead).
func (v *Vertex) OutEdges(subsystem string) []*Edge {
	if subsystem != Containment {
		if ov := v.overlay.Load(); ov != nil {
			return ov.out[subsystem]
		}
		return nil
	}
	var out []*Edge
	if p := v.parent; p != nil {
		out = append(out, &Edge{From: v, To: p, Subsystem: Containment, Type: EdgeIn})
	}
	v.EachChild(Containment, func(c *Vertex) bool {
		out = append(out, &Edge{From: v, To: c, Subsystem: Containment, Type: EdgeContains})
		return true
	})
	return out
}

// Property returns a property value ("" if absent).
func (v *Vertex) Property(key string) string {
	return v.Properties[key]
}

// SetProperty sets a property value.
func (v *Vertex) SetProperty(key, value string) {
	if v.Properties == nil {
		v.Properties = make(map[string]string)
	}
	v.Properties[key] = value
}

// linkChild appends c to v's intrusive child list; callers hold the
// graph's writer lock and have verified c has no parent.
func (v *Vertex) linkChild(c *Vertex) {
	c.parent = v
	c.nextSib = nil
	if v.kidTail == nil {
		v.kidHead, v.kidTail = c, c
	} else {
		v.kidTail.nextSib = c
		v.kidTail = c
	}
}

// unlinkChild removes c from v's intrusive child list; callers hold the
// graph's writer lock. c's own subtree links stay intact so a detached
// subtree remains enumerable.
func (v *Vertex) unlinkChild(c *Vertex) {
	var prev *Vertex
	for x := v.kidHead; x != nil; x = x.nextSib {
		if x == c {
			if prev == nil {
				v.kidHead = x.nextSib
			} else {
				prev.nextSib = x.nextSib
			}
			if v.kidTail == c {
				v.kidTail = prev
			}
			c.parent = nil
			c.nextSib = nil
			return
		}
		prev = x
	}
}
