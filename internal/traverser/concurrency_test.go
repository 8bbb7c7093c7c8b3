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
// committed allocate/cancel churn, speculate/commit-or-drop churn, and
// availability queries — under the race detector, then asserts every
// planner invariant (no double-booked units, exact SP-tree aggregates, exact
// span accounting) holds and nothing leaked. Live planners belong to the
// traverser, so every query made from outside it reads a pinned epoch.
func TestConcurrentMatchStress(t *testing.T) {
	g := buildSmall(t, 2, 8, 8, 0, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	tr := newT(t, g, match.First{})
	js := jobspec.New(3600, jobspec.RX("node", 1, jobspec.R("core", 4)))
	root := g.Root(resgraph.Containment)
	coreID, _ := g.Types().Lookup("core")
	totalCores := int64(len(g.ByType("core")))

	const (
		allocators  = 4
		speculators = 3
		readers     = 2
		iters       = 60
	)
	var ids atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Committed path: MatchAllocate + a root-filter probe + Cancel.
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
				if sn := tr.PinEpoch().Filter(root.UniqID).ByID(coreID); sn != nil {
					if avail, err := sn.AvailDuring(0, 60); err != nil || avail < 0 || avail > totalCores {
						t.Errorf("root core filter: avail %d, err %v", avail, err)
						return
					}
				}
				if err := tr.Cancel(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Speculative path: speculate against a fresh pin, then Commit (and
	// Cancel) or drop the speculation uncommitted.
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < speculators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := ids.Add(1)
				alloc, err := tr.MatchSpeculateCompiledEpoch(id, cjs, 0, tr.PinEpoch())
				if err != nil {
					if errors.Is(err, ErrNoMatch) {
						continue
					}
					t.Error(err)
					return
				}
				if (i+w)%3 == 0 {
					continue // dropped: an uncommitted speculation holds nothing
				}
				if err := tr.Commit(alloc); err != nil {
					if errors.Is(err, ErrConflict) {
						continue
					}
					t.Error(err)
					return
				}
				if err := tr.Cancel(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Read-only load: per-vertex planner queries through epoch pins and
	// job listings. The readers run until the mutating goroutines drain,
	// on their own WaitGroup.
	var rwg sync.WaitGroup
	for w := 0; w < readers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			cores := g.ByType("core")
			for i := 0; !stop.Load(); i++ {
				v := cores[i%len(cores)]
				sn := tr.PinEpoch().Plan(v.UniqID)
				if _, err := sn.AvailDuring(0, 3600); err != nil {
					t.Error(err)
					return
				}
				sn.AvailAt(int64(i % 1000))
				tr.JobCount()
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
