package resgraph

import "fmt"

// This file implements partition extraction for sharded scheduling
// (internal/shard): a finalized containment graph is split into n
// independent shard graphs, cut at a configurable containment level.
//
// The partition model: every vertex of type cutType is a *unit* — an
// indivisible subtree that lands wholly inside one shard. The ancestors
// of the units (the path from each unit up to the root) form the
// *skeleton*, which is replicated into every shard so that containment
// paths — and therefore match traversals, pruning-filter placement, and
// allocation grants — read identically to the flat graph. Subtrees that
// contain no cut vertex and hang off the skeleton (stray pools beside
// the racks, say) are units too: every vertex belongs to exactly one
// shard, and shard capacities sum to the flat graph's.
//
// Units are assigned round-robin in pre-order, so shard k holds units
// k, k+n, k+2n, … and shard sizes differ by at most one unit. Cloning
// walks the flat graph's published topo slab in pre-order, which
// preserves sibling order exactly; with n = 1 the clone is
// vertex-for-vertex identical to the original (same UniqID order, same
// paths, same intern sequence), which is what makes the 1-shard sharded
// scheduler decision-identical to the flat one.

// Partition splits a finalized graph into n shard graphs cut at the
// given containment type. Each shard graph is independently finalized
// with a copy of the source's prune spec and shares no state with the
// source or its siblings. The source graph is not modified.
func (g *Graph) Partition(cutType string, n int) ([]*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: partition into %d shards", ErrInvalid, n)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if !g.finalized {
		return nil, ErrNotFinalized
	}
	ts := g.topo.Load()
	root := g.roots[Containment]
	if ts == nil || root == nil {
		return nil, fmt.Errorf("%w: no containment tree to partition", ErrInvalid)
	}

	// Skeleton: every (strict) ancestor of a cut vertex, plus the root.
	// A nested cut vertex (cutType inside cutType) promotes its ancestor
	// cut to skeleton and splits below it.
	skeleton := make(map[*Vertex]bool)
	skeleton[root] = true
	cuts := 0
	for _, v := range ts.order {
		if v.Type != cutType {
			continue
		}
		cuts++
		for p := v.parent; p != nil && !skeleton[p]; p = p.parent {
			skeleton[p] = true
		}
	}
	if cuts == 0 {
		return nil, fmt.Errorf("%w: no %q vertices to cut at", ErrInvalid, cutType)
	}

	// Unit roots: the maximal non-skeleton subtrees, in pre-order.
	var units []*Vertex
	for i := 0; i < len(ts.order); {
		v := ts.order[i]
		if skeleton[v] {
			i++
			continue
		}
		units = append(units, v)
		i = int(ts.post[v.UniqID])
	}
	if len(units) < n {
		return nil, fmt.Errorf("%w: %d %q-cut units cannot fill %d shards",
			ErrInvalid, len(units), cutType, n)
	}
	shardOf := make(map[*Vertex]int, len(units))
	for i, u := range units {
		shardOf[u] = i % n
	}

	out := make([]*Graph, n)
	for k := 0; k < n; k++ {
		ng := NewGraph(g.base, g.horizon)
		for typ, rs := range g.prune {
			ng.prune[typ] = append([]string(nil), rs...)
		}
		clones := make(map[*Vertex]*Vertex, len(skeleton)+len(ts.order)/n+1)
		clone := func(v *Vertex) error {
			nv, err := ng.AddVertex(v.Type, v.ID, v.Size)
			if err != nil {
				return err
			}
			nv.Unit = v.Unit
			nv.Status = v.Status
			for pk, pv := range v.Properties {
				nv.SetProperty(pk, pv)
			}
			clones[v] = nv
			if p := v.parent; p != nil {
				if err := ng.AddContainment(clones[p], nv); err != nil {
					return err
				}
			}
			return nil
		}
		// One pre-order pass per shard: skeleton vertices always clone,
		// foreign units skip wholesale, owned units clone subtree-deep.
		// Global pre-order (and with it sibling order under every
		// skeleton parent) is preserved exactly.
		for i := 0; i < len(ts.order); {
			v := ts.order[i]
			if skeleton[v] {
				if err := clone(v); err != nil {
					return nil, err
				}
				i++
				continue
			}
			end := int(ts.post[v.UniqID])
			if shardOf[v] != k {
				i = end
				continue
			}
			for ; i < end; i++ {
				if err := clone(ts.order[i]); err != nil {
					return nil, err
				}
			}
		}
		if err := ng.Finalize(); err != nil {
			return nil, fmt.Errorf("resgraph: finalize shard %d: %w", k, err)
		}
		out[k] = ng
	}
	return out, nil
}
