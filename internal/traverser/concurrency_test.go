package traverser

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// checkQuiescent asserts the store is back to a fully idle, consistent
// state: every planner and filter passes its invariant checker with zero
// live spans.
func checkQuiescent(t *testing.T, g *resgraph.Graph) {
	t.Helper()
	for _, v := range g.Vertices() {
		if err := v.Planner().CheckInvariants(); err != nil {
			t.Errorf("%s: %v", v.Path(), err)
		}
		if n := v.Planner().SpanCount(); n != 0 {
			t.Errorf("%s: %d leaked spans", v.Path(), n)
		}
		if f := v.Filter(); f != nil {
			if err := f.CheckInvariants(); err != nil {
				t.Errorf("%s filter: %v", v.Path(), err)
			}
			if n := filterSpanCount(f); n != 0 {
				t.Errorf("%s filter: %d leaked spans", v.Path(), n)
			}
		}
	}
}

// TestConcurrentMatchStress hammers one traverser from many goroutines —
// committed allocate/cancel churn and allocation-table queries — under the
// race detector, then asserts every planner invariant (no double-booked
// units, exact SP-tree aggregates, exact span accounting) holds and
// nothing leaked. Live planners belong to the traverser, so every query
// made from outside it goes through its locked accessors.
func TestConcurrentMatchStress(t *testing.T) {
	g := buildSmall(t, 2, 8, 8, 0, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	tr := newT(t, g, match.First{})
	js := jobspec.New(3600, jobspec.RX("node", 1, jobspec.R("core", 4)))

	const (
		allocators = 4
		readers    = 2
		iters      = 60
	)
	var ids atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Committed path: MatchAllocate + an allocation-table probe + Cancel.
	for w := 0; w < allocators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids.Add(1)
				if _, err := tr.MatchAllocate(id, js, 0); err != nil {
					if errors.Is(err, ErrNoMatch) {
						continue // transiently full
					}
					t.Error(err)
					return
				}
				if a, ok := tr.Info(id); !ok || a.Units("core") != 4 {
					t.Errorf("job %d: info %v, ok %v", id, a, ok)
					return
				}
				if err := tr.Cancel(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Read-only load: allocation lookups and job listings. The readers run
	// until the mutating goroutines drain, on their own WaitGroup.
	var rwg sync.WaitGroup
	for w := 0; w < readers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; !stop.Load(); i++ {
				for _, id := range tr.Jobs() {
					if a, ok := tr.Info(id); ok && a.JobID != id {
						t.Errorf("Info(%d) returned job %d", id, a.JobID)
						return
					}
				}
				if n := tr.JobCount(); n > allocators {
					t.Errorf("%d live jobs with %d allocators", n, allocators)
					return
				}
			}
		}()
	}

	wg.Wait()
	stop.Store(true)
	rwg.Wait()

	if tr.JobCount() != 0 {
		t.Fatalf("%d jobs leaked", tr.JobCount())
	}
	checkQuiescent(t, g)
}

// TestConcurrentStressWithFailures adds node down/up churn to the mix: a
// fault goroutine repeatedly takes a node out of service (evicting the
// jobs on it) and restores it while allocators run. Afterwards the store
// must be consistent and fully idle.
func TestConcurrentStressWithFailures(t *testing.T) {
	g := buildSmall(t, 2, 4, 8, 0, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	tr := newT(t, g, match.First{})
	js := jobspec.New(3600, jobspec.RX("node", 1, jobspec.R("core", 8)))

	var ids atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids.Add(1)
				if _, err := tr.MatchAllocate(id, js, 0); err != nil {
					continue // full or transiently down
				}
				// The job may be evicted by the fault goroutine between
				// allocate and cancel; both outcomes must stay consistent.
				if err := tr.Cancel(id); err != nil && !errors.Is(err, ErrUnknownJob) {
					t.Error(err)
					return
				}
			}
		}()
	}
	var nodePaths []string
	for _, v := range g.ByType("node") {
		nodePaths = append(nodePaths, v.Path())
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			path := nodePaths[i%len(nodePaths)]
			if _, err := tr.MarkDown(path); err != nil {
				t.Error(err)
				return
			}
			if err := tr.MarkUp(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if tr.JobCount() != 0 {
		t.Fatalf("%d jobs leaked", tr.JobCount())
	}
	checkQuiescent(t, g)
}
