package jobspec

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"fluxion/internal/intern"
)

// This file implements the jobspec compilation pass feeding Fluxion's
// zero-allocation match kernel. Compile flattens the request tree into
// an immutable array form with resource types interned as dense IDs
// (shared with the resource graph's type table) and the per-instance
// aggregate needs of every request vertex precomputed, so the matcher
// never rebuilds string-keyed maps while traversing.

// TypeCount pairs a resource type — both its name and its interned
// ID — with a unit count.
type TypeCount struct {
	Type  string
	ID    int32
	Units int64
}

// CNode is one flattened request vertex of a compiled jobspec. Nodes
// reference their children by index into the compiled node array.
type CNode struct {
	// Type and TypeID name the requested resource type (TypeID is the
	// interned form; slots intern the Slot pseudo type).
	Type   string
	TypeID int32
	// Count is the requested unit count per parent instance; Min is the
	// resolved smallest acceptable count (MinCount: Min for moldable
	// requests, Count for rigid ones).
	Count, Min int64
	// Exclusive marks whole-vertex exclusive allocation.
	Exclusive bool
	// IsSlot marks the task-container pseudo vertex.
	IsSlot bool
	// With indexes the nested requests in the node array.
	With []int32
	// Needs is the aggregate units per type one instance of this request
	// requires (the matcher's pruning bound), sorted by type name.
	Needs []TypeCount
}

// Compiled is the matcher-ready form of a validated Jobspec: the
// request tree flattened into nodes, plus the whole request's total
// counts. A Compiled is immutable after Compile and safe for concurrent
// use; callers must not modify the slices its accessors return. It
// remembers the intern table it was compiled against so a traverser can
// reject specs compiled for a different graph.
type Compiled struct {
	spec   *Jobspec
	table  *intern.Table
	nodes  []CNode
	roots  []int32
	totals []TypeCount
	wholes []TypeCount
	shape  string
}

// Compile validates js and flattens it against the given intern table
// (typically Graph.Types() of the graph it will be matched on). The
// jobspec must not be mutated afterwards; compile again after any
// change.
func Compile(js *Jobspec, tab *intern.Table) (*Compiled, error) {
	if tab == nil {
		return nil, fmt.Errorf("%w: compile requires an intern table", ErrInvalid)
	}
	if err := js.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{spec: js, table: tab}
	c.roots = make([]int32, 0, len(js.Resources))
	for _, r := range js.Resources {
		c.roots = append(c.roots, c.flatten(r, tab))
	}
	for i := range c.nodes {
		c.nodes[i].Needs = compileNeeds(&c.nodes[i], c.nodes)
	}
	c.totals = internCounts(js.TotalCounts(), tab)
	c.wholes = compileWholes(c.nodes, c.roots)
	c.shape = shapeKey(c.nodes, c.roots)
	return c, nil
}

// flatten appends r's subtree to c.nodes in pre-order and returns r's
// node index.
func (c *Compiled) flatten(r *Resource, tab *intern.Table) int32 {
	idx := int32(len(c.nodes))
	c.nodes = append(c.nodes, CNode{
		Type:      r.Type,
		TypeID:    tab.ID(r.Type),
		Count:     r.Count,
		Min:       r.MinCount(),
		Exclusive: r.Exclusive,
		IsSlot:    r.Type == Slot,
	})
	if len(r.With) > 0 {
		with := make([]int32, 0, len(r.With))
		for _, child := range r.With {
			with = append(with, c.flatten(child, tab))
		}
		c.nodes[idx].With = with
	}
	return idx
}

// compileNeeds computes one request instance's aggregate needs per type
// — the same quantity the interpreted matcher derived per candidate
// with instanceNeeds: one unit of the node's own type (or the nested
// shape for slots) plus the subtree multiplied down at minimum counts.
func compileNeeds(n *CNode, nodes []CNode) []TypeCount {
	agg := make(map[int32]*TypeCount)
	add := func(x *CNode, units int64) {
		tc := agg[x.TypeID]
		if tc == nil {
			tc = &TypeCount{Type: x.Type, ID: x.TypeID}
			agg[x.TypeID] = tc
		}
		tc.Units += units
	}
	var walk func(x *CNode, mult int64)
	walk = func(x *CNode, mult int64) {
		units := mult * x.Min
		if !x.IsSlot {
			add(x, units)
		}
		for _, ci := range x.With {
			walk(&nodes[ci], units)
		}
	}
	if n.IsSlot {
		for _, ci := range n.With {
			walk(&nodes[ci], 1)
		}
	} else {
		add(n, 1)
		for _, ci := range n.With {
			walk(&nodes[ci], 1)
		}
	}
	out := make([]TypeCount, 0, len(agg))
	for _, tc := range agg {
		out = append(out, *tc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// compileWholes counts, per type, the distinct vertices any match must
// take whole: the product of Min counts down the request tree for every
// structural request vertex (one with nested requests) that is taken
// exclusively — marked so, or beneath an exclusive vertex or a slot,
// since exclusivity is inherited downward. Such a claim needs the
// candidate's whole pool free over the window, so no other such claim
// can share the vertex. A request beneath another of the same type is
// skipped: it may match its parent's candidate itself.
func compileWholes(nodes []CNode, roots []int32) []TypeCount {
	var out []TypeCount
	var walk func(x *CNode, mult int64, excl bool, above []int32)
	walk = func(x *CNode, mult int64, excl bool, above []int32) {
		units := mult * x.Min
		if x.IsSlot {
			excl = true
		} else {
			excl = excl || x.Exclusive
			if excl && len(x.With) > 0 && units > 0 && !slices.Contains(above, x.TypeID) {
				i := slices.IndexFunc(out, func(tc TypeCount) bool { return tc.ID == x.TypeID })
				if i < 0 {
					i = len(out)
					out = append(out, TypeCount{Type: x.Type, ID: x.TypeID})
				}
				out[i].Units += units
			}
			above = append(above, x.TypeID)
		}
		for _, ci := range x.With {
			walk(&nodes[ci], units, excl, above)
		}
	}
	for _, ri := range roots {
		walk(&nodes[ri], 1, false, nil)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// shapeKey encodes what a capacity-only walk reads of a request: per node
// in pre-order its TypeID, Count, Min, Exclusive and IsSlot and its With
// indexes, then the roots. Names, Needs, Totals and Wholes derive from
// these; the duration is left out.
func shapeKey(nodes []CNode, roots []int32) string {
	b := binary.AppendUvarint(nil, uint64(len(nodes)))
	for i := range nodes {
		n := &nodes[i]
		b = binary.AppendVarint(b, int64(n.TypeID))
		b = binary.AppendVarint(b, n.Count)
		b = binary.AppendVarint(b, n.Min)
		var flags byte
		if n.Exclusive {
			flags |= 1
		}
		if n.IsSlot {
			flags |= 2
		}
		b = append(b, flags)
		b = appendIndexes(b, n.With)
	}
	return string(appendIndexes(b, roots))
}

// appendIndexes appends a length-prefixed list of node indexes.
func appendIndexes(b []byte, idx []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i))
	}
	return b
}

// internCounts converts a type->units map into a sorted TypeCount
// slice.
func internCounts(counts map[string]int64, tab *intern.Table) []TypeCount {
	out := make([]TypeCount, 0, len(counts))
	for rt, n := range counts {
		out = append(out, TypeCount{Type: rt, ID: tab.ID(rt), Units: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// Spec returns the source jobspec.
func (c *Compiled) Spec() *Jobspec { return c.spec }

// Table returns the intern table the spec was compiled against.
func (c *Compiled) Table() *intern.Table { return c.table }

// Nodes returns the flattened request vertices. The slice is live; do
// not modify.
func (c *Compiled) Nodes() []CNode { return c.nodes }

// Roots returns the indexes of the top-level requests in Nodes.
func (c *Compiled) Roots() []int32 { return c.roots }

// Totals returns the whole request's aggregate units per type at
// minimum counts (TotalCounts interned), sorted by type name. The slice
// is live; do not modify.
func (c *Compiled) Totals() []TypeCount { return c.totals }

// Shape returns the request's shape key: equal for two specs compiled
// against the same table exactly when their request trees agree in every
// field a capacity-only walk reads (see shapeKey), whatever their
// durations.
func (c *Compiled) Shape() string { return c.shape }

// Wholes returns, per type, how many distinct vertices of that type any
// match takes whole and exclusively (see compileWholes), sorted by type
// name; types with none are absent. The slice is live; do not modify.
func (c *Compiled) Wholes() []TypeCount { return c.wholes }
