package fluxion

import (
	"fmt"

	"fluxion/internal/resgraph"
)

// SpawnInstance implements fully hierarchical scheduling (paper §5.6):
// it builds a child Fluxion instance whose resource graph store contains
// exactly the resources granted to jobID — pool vertices sized to the
// granted units, connected by a clone of the containment skeleton. The
// child schedules its own sub-jobs within the grant, independently of the
// parent; the parent-child relationship can extend to arbitrary depth.
//
// opts configure the child (policy, prune filters, horizon); sources
// (WithRecipe etc.) must not be passed. The child starts at the parent's
// planner base and, by default, inherits its horizon.
func (f *Fluxion) SpawnInstance(jobID int64, opts ...Option) (*Fluxion, error) {
	c := &config{horizon: f.g.Horizon()}
	spec, err := c.apply(opts)
	if err != nil {
		return nil, err
	}
	if c.sources() != 0 {
		return nil, fmt.Errorf("fluxion: SpawnInstance does not accept a store source option")
	}
	g := resgraph.NewGraph(f.g.Base(), c.horizon)

	// The grant lookup and the clone of its subtree happen under one
	// critical section: looking the allocation up, dropping the lock, and
	// then walking alloc.Vertices would race a concurrent grant cancel —
	// the child could be built from a grant that no longer exists, reading
	// parent vertex state mid-mutation. A cancel that lands before the
	// lock is taken surfaces as a clean ErrUnknownJob instead. The lock is
	// released before the child graph is finalized: from here on only the
	// new graph is touched.
	if err := func() error {
		f.mu.Lock()
		defer f.mu.Unlock()
		alloc, ok := f.tr.Info(jobID)
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownJob, jobID)
		}

		// Accumulate granted units per vertex (a pool can be granted from
		// several slots of the same job).
		granted := make(map[*resgraph.Vertex]int64)
		order := make([]*resgraph.Vertex, 0, len(alloc.Vertices))
		for _, va := range alloc.Vertices {
			if _, seen := granted[va.V]; !seen {
				order = append(order, va.V)
			}
			granted[va.V] += va.Units
		}

		clones := make(map[*resgraph.Vertex]*resgraph.Vertex)
		var cloneOf func(v *resgraph.Vertex) (*resgraph.Vertex, error)
		cloneOf = func(v *resgraph.Vertex) (*resgraph.Vertex, error) {
			if nv, ok := clones[v]; ok {
				return nv, nil
			}
			nv, err := g.AddVertex(v.Type, v.ID, v.Size)
			if err != nil {
				return nil, err
			}
			nv.Unit = v.Unit
			for k, val := range v.Properties {
				nv.SetProperty(k, val)
			}
			clones[v] = nv
			if p := v.Parent(); p != nil {
				pp, err := cloneOf(p)
				if err != nil {
					return nil, err
				}
				if err := g.AddContainment(pp, nv); err != nil {
					return nil, err
				}
			}
			return nv, nil
		}
		for _, v := range order {
			nv, err := cloneOf(v)
			if err != nil {
				return err
			}
			// Partial pool grants shrink the child's pool to the granted
			// units; structural skeleton vertices (units 0) keep their
			// size so traversal semantics match the parent.
			if u := granted[v]; u > 0 {
				nv.Size = u
			}
		}
		return nil
	}(); err != nil {
		return nil, err
	}
	return New(WithGraph(g), WithPruneSpec(spec), WithPolicy(c.policy), WithSubsystem(c.subsystem))
}
