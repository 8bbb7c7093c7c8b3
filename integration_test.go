package fluxion

// Cross-module invariant tests: random workloads drive the full stack and
// the test re-derives ground truth from the per-vertex planners, checking
// that the pruning filters (maintained only by SDFU increments) never
// drift from it, and that cancellation restores the store exactly.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// checkFilterConsistency verifies that the traverser's planners and
// pruning filters agree with its allocation table at instant at
// (Traverser.CheckPlanners: every uncovered vertex planner holds exactly
// the table's spans and units, every covered entry lies beneath a whole
// claim of its own job, every filter member holds the table's units of
// its type across the owner's subtree and, in total, the subtree's
// in-service capacity — which MarkDown/MarkUp and Attach/Detach keep
// through ID-keyed filter updates). It also checks that the traverser's
// window-exact admission index equals one rebuilt from the graph and the
// allocation table.
func checkFilterConsistency(t *testing.T, tr *traverser.Traverser, at int64) {
	t.Helper()
	if err := tr.CheckIdleIndex(); err != nil {
		t.Fatalf("idle index drift: %v", err)
	}
	if err := tr.CheckPlanners(at); err != nil {
		t.Fatalf("planner drift at %d: %v", at, err)
	}
}

// checkDrained verifies every planner and filter member holds no spans.
func checkDrained(t *testing.T, g *resgraph.Graph) {
	t.Helper()
	for _, v := range g.Vertices() {
		if v.Planner().SpanCount() != 0 {
			t.Fatalf("%s still holds %d spans", v.Path(), v.Planner().SpanCount())
		}
		f := v.Filter()
		if f == nil {
			continue
		}
		for _, id := range f.IDs() {
			if n := f.PlannerByID(id).SpanCount(); n != 0 {
				t.Fatalf("%s filter member %s still holds %d spans", v.Path(), g.Types().Name(id), n)
			}
		}
	}
}

// TestInvariantRandomWorkload drives allocations, reservations and
// cancellations interleaved with node and rack failures and repairs and
// with grown and shrunk nodes, checking the filters against the per-vertex
// ground truth as it goes and that a full drain leaves nothing planned.
func TestInvariantRandomWorkload(t *testing.T) {
	g, err := grug.BuildGraph(grug.Small(3, 4, 8, 32, 100), 0, 1<<30,
		resgraph.PruneSpec{resgraph.ALL: {"core", "node", "memory", "bb"}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	jobs := map[int64]bool{}
	var order []int64 // live job IDs in submission order, for reproducible picks
	nextID := int64(1)
	var grown []*resgraph.Vertex
	drop := func(id int64) {
		delete(jobs, id)
		for i, j := range order {
			if j == id {
				order = append(order[:i], order[i+1:]...)
				return
			}
		}
	}
	pick := func(types ...string) *resgraph.Vertex {
		var vs []*resgraph.Vertex
		for _, v := range g.Vertices() {
			for _, typ := range types {
				if v.Type == typ {
					vs = append(vs, v)
				}
			}
		}
		return vs[rng.Intn(len(vs))]
	}

	shapes := []func(dur int64) *jobspec.Jobspec{
		func(d int64) *jobspec.Jobspec { return jobspec.NodeLocal(1, 1, 3, 8, 10, d) },
		func(d int64) *jobspec.Jobspec {
			return jobspec.New(d, jobspec.RX("node", 2, jobspec.R("core", 8)))
		},
		func(d int64) *jobspec.Jobspec {
			return jobspec.New(d, jobspec.SlotR(2, jobspec.R("core", 2), jobspec.R("memory", 4)))
		},
		func(d int64) *jobspec.Jobspec {
			return jobspec.New(d, jobspec.R("rack", 1, jobspec.SlotR(1, jobspec.R("node", 2, jobspec.R("core", 4)))))
		},
	}

	var downs, ups, grows, shrinks int
	for op := 0; op < 900; op++ {
		switch k := rng.Intn(100); {
		case len(order) == 0 || k < 50:
			d := int64(rng.Intn(500)) + 10
			spec := shapes[rng.Intn(len(shapes))](d)
			at := int64(rng.Intn(200))
			var err error
			if rng.Intn(2) == 0 {
				_, err = tr.MatchAllocate(nextID, spec, at)
			} else {
				_, err = tr.MatchAllocateOrReserve(nextID, spec, at)
			}
			if err == nil {
				jobs[nextID] = true
				order = append(order, nextID)
				nextID++
			}
		case k < 84:
			id := order[rng.Intn(len(order))]
			if err := tr.Cancel(id); err != nil {
				t.Fatalf("op %d: cancel %d: %v", op, id, err)
			}
			drop(id)
		case k < 90:
			evicted, err := tr.MarkDown(pick("node", "rack").Path())
			if err != nil {
				t.Fatalf("op %d: MarkDown: %v", op, err)
			}
			for _, a := range evicted {
				if !jobs[a.JobID] {
					t.Fatalf("op %d: MarkDown evicted unknown job %d", op, a.JobID)
				}
				drop(a.JobID)
			}
			downs++
		case k < 96:
			if err := tr.MarkUp(pick("node", "rack").Path()); err != nil {
				t.Fatalf("op %d: MarkUp: %v", op, err)
			}
			ups++
		case k < 98:
			sub, err := grug.Build(g, &grug.Recipe{Root: grug.N("node", 1, grug.N("core", 8), grug.N("memory", 1))})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Attach(pick("rack"), sub); err != nil {
				t.Fatalf("op %d: Attach: %v", op, err)
			}
			grown = append(grown, sub)
			grows++
		default:
			if len(grown) == 0 {
				continue
			}
			i := rng.Intn(len(grown))
			switch err := g.Detach(grown[i]); {
			case err == nil:
				grown = append(grown[:i], grown[i+1:]...)
				shrinks++
			case !errors.Is(err, resgraph.ErrBusy):
				t.Fatalf("op %d: Detach: %v", op, err)
			}
		}
		if op%10 == 0 {
			checkFilterConsistency(t, tr, int64(rng.Intn(400)))
		}
	}
	if downs == 0 || ups == 0 || grows == 0 || shrinks == 0 {
		t.Fatalf("workload skipped an operation: %d downs, %d ups, %d grows, %d shrinks", downs, ups, grows, shrinks)
	}
	for _, id := range order {
		if err := tr.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	checkFilterConsistency(t, tr, 0)
	checkDrained(t, g)
}

func TestInvariantReleasePreservesConsistency(t *testing.T) {
	g, err := grug.BuildGraph(grug.Small(2, 4, 8, 0, 0), 0, 1<<30,
		resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traverser.New(g, match.LowID{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var live []int64
	for round := 0; round < 40; round++ {
		spec := jobspec.New(int64(rng.Intn(300))+10, jobspec.RX("node", 3, jobspec.R("core", 8)))
		alloc, err := tr.MatchAllocate(int64(round+1), spec, 0)
		if err != nil {
			// The system filled up with surviving jobs: drain and retry.
			for _, id := range live {
				if err := tr.Cancel(id); err != nil {
					t.Fatal(err)
				}
			}
			live = nil
			checkFilterConsistency(t, tr, 0)
			if alloc, err = tr.MatchAllocate(int64(round+1), spec, 0); err != nil {
				t.Fatal(err)
			}
		}
		live = append(live, int64(round+1))
		// Release one random granted node and its cores.
		nodes := alloc.Nodes()
		n := nodes[rng.Intn(len(nodes))]
		paths := []string{n.Path()}
		n.EachChild(resgraph.Containment, func(c *resgraph.Vertex) bool {
			paths = append(paths, c.Path())
			return true
		})
		if err := tr.Release(int64(round+1), paths); err != nil {
			t.Fatal(err)
		}
		checkFilterConsistency(t, tr, 0)
		if rng.Intn(2) == 0 {
			if err := tr.Cancel(int64(round + 1)); err != nil {
				t.Fatal(err)
			}
			live = live[:len(live)-1]
			checkFilterConsistency(t, tr, 0)
		}
	}
}

func TestConcurrentFacadeAccess(t *testing.T) {
	f := newFluxion(t)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				id := int64(w*1000 + i)
				spec := jobspec.NodeLocal(1, 1, 1, 1, 0, 50)
				if _, e := f.MatchAllocateOrReserve(id, spec, 0); e != nil {
					err = e
					break
				}
				if _, ok := f.Info(id); !ok {
					break
				}
				err = f.Cancel(id)
			}
			done <- err
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(f.Jobs()) != 0 {
		t.Fatalf("jobs leaked: %v", f.Jobs())
	}
}

// TestGrowShrinkConcurrentMatch grows and shrinks the system through the
// facade while other goroutines allocate, reserve and cancel through
// f.Traverser(). Elasticity edits the same pruning filters SDFU does, so
// under the race detector it must serialize with them on the traverser.
// Once everything is drained the filters must still be exact.
func TestGrowShrinkConcurrentMatch(t *testing.T) {
	f, err := New(
		WithRecipe(grug.Small(1, 2, 4, 0, 0)),
		WithPruneFilters("ALL:core,ALL:node"),
	)
	if err != nil {
		t.Fatal(err)
	}
	tr := f.Traverser()
	js := jobspec.New(100, jobspec.RX("node", 1, jobspec.R("core", 4)))
	var ids atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := ids.Add(1)
				var err error
				if (i+w)%2 == 0 {
					_, err = tr.MatchAllocate(id, js, 0)
				} else {
					_, err = tr.MatchAllocateOrReserve(id, js, 0)
				}
				if errors.Is(err, traverser.ErrNoMatch) {
					continue
				}
				if err != nil {
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
	// Grown racks a matcher kept busy are shrunk after the drain.
	var grown []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub := &grug.Recipe{Root: grug.N("rack", 1, grug.N("node", 2, grug.N("core", 4)))}
		for i := 0; i < 20; i++ {
			v, err := f.Grow("/cluster0", sub)
			if err != nil {
				t.Error(err)
				return
			}
			grown = append(grown, v.Path())
			kept := grown[:0]
			for _, p := range grown {
				if err := f.Shrink(p); errors.Is(err, resgraph.ErrBusy) {
					kept = append(kept, p)
				} else if err != nil {
					t.Error(err)
					return
				}
			}
			grown = kept
		}
	}()
	wg.Wait()
	if n := len(f.Jobs()); n != 0 {
		t.Fatalf("%d jobs leaked", n)
	}
	for _, p := range grown {
		if err := f.Shrink(p); err != nil {
			t.Fatalf("shrink %s after drain: %v", p, err)
		}
	}
	checkFilterConsistency(t, f.Traverser(), 0)
	checkDrained(t, f.Graph())
	if n := f.Graph().Root(resgraph.Containment).Aggregates()["node"]; n != 2 {
		t.Fatalf("root node aggregate after shrinking every grown rack: %d", n)
	}
}

// TestElasticityUnderLoad grows the system while jobs are running and
// reserved, and verifies the new capacity is scheduled onto and the
// filters stay exact.
func TestElasticityUnderLoad(t *testing.T) {
	f, err := New(
		WithRecipe(grug.Small(1, 2, 4, 0, 0)),
		WithPruneFilters("ALL:core,ALL:node"),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Fill both nodes and queue a reservation.
	busy := jobspec.New(100, jobspec.RX("node", 2, jobspec.R("core", 4)))
	if _, err := f.MatchAllocate(1, busy, 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.MatchAllocateOrReserve(2, jobspec.New(50, jobspec.RX("node", 1, jobspec.R("core", 4))), 0)
	if err != nil || !res.Reserved || res.At != 100 {
		t.Fatalf("reserve = %+v, %v", res, err)
	}
	// Grow a rack with two fresh nodes mid-flight.
	sub := &grug.Recipe{Root: grug.N("rack", 1, grug.N("node", 2, grug.N("core", 4)))}
	if _, err := f.Grow("/cluster0", sub); err != nil {
		t.Fatal(err)
	}
	checkFilterConsistency(t, f.Traverser(), 0)
	// An immediate allocation lands on the new nodes even though the
	// original ones are busy.
	a3, err := f.MatchAllocate(3, jobspec.New(50, jobspec.RX("node", 2, jobspec.R("core", 4))), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range a3.Nodes() {
		if n.Parent().Name != "rack1" {
			t.Fatalf("job 3 landed on old node %s", n.Path())
		}
	}
	checkFilterConsistency(t, f.Traverser(), 10)
	// Drain everything; shrink succeeds and the store is consistent.
	for _, id := range []int64{1, 2, 3} {
		if err := f.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Shrink("/cluster0/rack1"); err != nil {
		t.Fatal(err)
	}
	checkDrained(t, f.Graph())
	if f.Graph().Root(resgraph.Containment).Aggregates()["node"] != 2 {
		t.Fatalf("aggregates after shrink: %v", f.Graph().Root(resgraph.Containment).Aggregates())
	}
}
