package traverser

import (
	"errors"
	"fmt"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/planner"
	"fluxion/internal/resgraph"
)

// buildSmall builds racks×nodes×cores (+memGB per node) with ALL:core,node
// pruning filters unless spec is explicitly nil-ed by passing empty.
func buildSmall(t *testing.T, racks, nodes, cores, memGB int64, spec resgraph.PruneSpec) *resgraph.Graph {
	t.Helper()
	g, err := grug.BuildGraph(grug.Small(racks, nodes, cores, memGB, 0), 0, 1<<30, spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// filterMember returns the member planner of v's pruning filter for type
// rt, or nil when v has no filter or the filter does not track rt.
func filterMember(g *resgraph.Graph, v *resgraph.Vertex, rt string) *planner.Planner {
	id, ok := g.Types().Lookup(rt)
	if f := v.Filter(); ok && f != nil {
		return f.PlannerByID(id)
	}
	return nil
}

// filterSpanCount returns the live spans across every member of f.
func filterSpanCount(f *planner.Multi) (n int) {
	for _, id := range f.IDs() {
		n += f.PlannerByID(id).SpanCount()
	}
	return n
}

func defaultSpec() resgraph.PruneSpec {
	return resgraph.PruneSpec{resgraph.ALL: {"core", "node", "memory"}}
}

func newT(t *testing.T, g *resgraph.Graph, policy match.Policy) *Traverser {
	t.Helper()
	tr, err := New(g, policy)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMatchAllocateBasic(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})

	js := jobspec.NodeLocal(1, 1, 2, 4, 0, 100)
	alloc, err := tr.MatchAllocate(1, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Reserved || alloc.At != 0 || alloc.Duration != 100 {
		t.Fatalf("alloc = %+v", alloc)
	}
	// 2 cores at 1 unit each + 4 GB memory consumed.
	var coreUnits, memUnits int64
	for _, va := range alloc.Vertices {
		switch va.V.Type {
		case "core":
			coreUnits += va.Units
		case "memory":
			memUnits += va.Units
		case "node":
			if va.Units != 0 {
				t.Fatalf("shared node consumed %d units", va.Units)
			}
		}
	}
	if coreUnits != 2 || memUnits != 4 {
		t.Fatalf("core=%d mem=%d", coreUnits, memUnits)
	}
	if len(alloc.Nodes()) != 1 {
		t.Fatalf("nodes = %v", alloc.Nodes())
	}
	if alloc.Describe() == "" {
		t.Fatal("empty Describe")
	}
}

func TestFillToCapacityAndCancel(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 64, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.NodeLocal(1, 1, 2, 4, 0, 1000)

	// 2 nodes × 4 cores / 2 cores per job = 4 jobs fit.
	var ids []int64
	for i := int64(1); i <= 4; i++ {
		if _, err := tr.MatchAllocate(i, js, 0); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		ids = append(ids, i)
	}
	_, err := tr.MatchAllocate(5, js, 0)
	if !errors.Is(err, ErrNoMatch) {
		t.Fatalf("5th job: %v", err)
	}
	if want := ErrNoMatch.Error() + ": root filter rejects at t=0"; err.Error() != want {
		t.Fatalf("5th job: %q, want %q", err, want)
	}
	if got := tr.Jobs(); len(got) != 4 || got[0] != 1 {
		t.Fatalf("Jobs = %v", got)
	}
	// Cancel one; the 5th then fits.
	if err := tr.Cancel(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocate(5, js, 0); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	if err := tr.Cancel(99); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel unknown: %v", err)
	}
}

func TestDuplicateJobID(t *testing.T) {
	g := buildSmall(t, 1, 1, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.NodeLocal(1, 1, 1, 1, 0, 10)
	if _, err := tr.MatchAllocate(1, js, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocate(1, js, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := tr.MatchAllocateOrReserve(1, js, 0); !errors.Is(err, ErrExists) {
		t.Fatalf("dup reserve: %v", err)
	}
}

func TestSDFUFilterAccounting(t *testing.T) {
	g := buildSmall(t, 2, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	root := g.Root(resgraph.Containment)
	coreAvail := func(v *resgraph.Vertex) int64 {
		a, err := filterMember(g, v, "core").AvailDuring(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if coreAvail(root) != 16 {
		t.Fatalf("initial root core avail = %d", coreAvail(root))
	}
	js := jobspec.NodeLocal(1, 1, 3, 0, 0, 100)
	if _, err := tr.MatchAllocate(1, js, 0); err != nil {
		t.Fatal(err)
	}
	if coreAvail(root) != 13 {
		t.Fatalf("root core avail after alloc = %d, want 13", coreAvail(root))
	}
	// Exactly one rack and one node absorbed the job.
	rackTotals := 0
	for _, r := range g.ByType("rack") {
		if coreAvail(r) == 5 {
			rackTotals++
		} else if coreAvail(r) != 8 {
			t.Fatalf("rack avail = %d", coreAvail(r))
		}
	}
	if rackTotals != 1 {
		t.Fatalf("racks touched = %d", rackTotals)
	}
	if err := tr.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if coreAvail(root) != 16 {
		t.Fatalf("root core avail after cancel = %d", coreAvail(root))
	}
	for _, r := range g.ByType("rack") {
		if coreAvail(r) != 8 {
			t.Fatalf("rack not restored: %d", coreAvail(r))
		}
	}
}

// TestSDFUFilterSpansRollBack checks the allocation's record of filter
// member spans: SDFU plans one span per filter member the job's units
// reach, cancellation removes exactly those, and a filter update that
// fails part-way removes every member span it had already planned.
func TestSDFUFilterSpansRollBack(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	root := g.Root(resgraph.Containment)
	spans := func() (n int) {
		for _, v := range g.Vertices() {
			n += v.Planner().SpanCount()
			if f := v.Filter(); f != nil {
				n += filterSpanCount(f)
			}
		}
		return n
	}
	// Two cores and memory on a shared node: the node's, the rack's and
	// the cluster's filters each get a core span and a memory span.
	alloc, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 2, 4, 0, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	vertexSpans := 0
	for _, va := range alloc.Vertices {
		if va.Units > 0 {
			vertexSpans++
		}
	}
	if len(alloc.filterSpans) != 3*2 || spans() != vertexSpans+3*2 {
		t.Fatalf("filter spans = %d, live spans = %d; want 6 and %d", len(alloc.filterSpans), spans(), vertexSpans+3*2)
	}
	grants := alloc.Grants()
	if err := tr.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if n := spans(); n != 0 {
		t.Fatalf("cancel left %d spans", n)
	}
	// Take the cluster's cores behind the traverser's back: SDFU reaches
	// the root filter last and must undo the node and rack spans.
	block, err := filterMember(g, root, "core").AddSpan(0, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Reinstall(1, alloc.At, alloc.Duration, false, grants); err == nil {
		t.Fatal("reinstall over a full root filter succeeded")
	}
	if n := spans(); n != 1 {
		t.Fatalf("failed filter update left %d spans besides the blocker", n-1)
	}
	if err := filterMember(g, root, "core").RemoveSpan(block); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Reinstall(1, alloc.At, alloc.Duration, false, grants); err != nil {
		t.Fatal(err)
	}
}

func TestMatchAllocateOrReserve(t *testing.T) {
	g := buildSmall(t, 1, 1, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})

	// Saturate the node's cores for [0, 100).
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 4, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	// A 2-core job must be reserved at t=100.
	alloc, err := tr.MatchAllocateOrReserve(2, jobspec.NodeLocal(1, 1, 2, 0, 0, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Reserved || alloc.At != 100 {
		t.Fatalf("alloc = %+v, want reserved at 100", alloc)
	}
	// A third job that fits right now allocates immediately (backfill).
	alloc3, err := tr.MatchAllocateOrReserve(3, jobspec.NodeLocal(1, 1, 2, 0, 0, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc3.Reserved {
		// cores are all busy at t=0, so this should also reserve —
		// but at 100 alongside job 2 (2+2 cores fit).
		if alloc3.At != 100 {
			t.Fatalf("job3 at %d", alloc3.At)
		}
	} else {
		t.Fatalf("job3 should be a reservation, got %+v", alloc3)
	}
	// A fourth 4-core job must land after the reserved jobs complete.
	alloc4, err := tr.MatchAllocateOrReserve(4, jobspec.NodeLocal(1, 1, 4, 0, 0, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc4.Reserved || alloc4.At != 150 {
		t.Fatalf("job4 = %+v, want reserved at 150", alloc4)
	}
}

func TestReserveRequiresRootFilter(t *testing.T) {
	g := buildSmall(t, 1, 1, 2, 16, nil) // no filters anywhere
	tr := newT(t, g, match.First{})
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 2, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	_, err := tr.MatchAllocateOrReserve(2, jobspec.NodeLocal(1, 1, 1, 0, 0, 10), 0)
	if !errors.Is(err, ErrNoFilter) {
		t.Fatalf("want ErrNoFilter, got %v", err)
	}
}

func TestMatchSatisfy(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})

	ok, err := tr.MatchSatisfy(jobspec.NodeLocal(2, 1, 4, 8, 0, 10))
	if err != nil || !ok {
		t.Fatalf("feasible = %v, %v", ok, err)
	}
	// 5 cores per node exceeds the 4-core nodes.
	ok, err = tr.MatchSatisfy(jobspec.NodeLocal(1, 1, 5, 0, 0, 10))
	if err != nil || ok {
		t.Fatalf("infeasible cores = %v, %v", ok, err)
	}
	// 3 nodes exceed the 2-node system.
	ok, err = tr.MatchSatisfy(jobspec.NodeLocal(3, 1, 1, 0, 0, 10))
	if err != nil || ok {
		t.Fatalf("infeasible nodes = %v, %v", ok, err)
	}
	// Satisfiability ignores current allocations.
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(2, 1, 4, 0, 0, 1<<29), 0); err != nil {
		t.Fatal(err)
	}
	ok, err = tr.MatchSatisfy(jobspec.NodeLocal(2, 1, 4, 0, 0, 10))
	if err != nil || !ok {
		t.Fatalf("busy but satisfiable = %v, %v", ok, err)
	}
	// And dry runs never leak claims.
	if ok, _ := tr.MatchSatisfy(jobspec.NodeLocal(2, 1, 4, 0, 0, 10)); !ok {
		t.Fatal("second satisfy call disagrees")
	}
}

func TestDryRunCountsWithinJob(t *testing.T) {
	// Two slots of 3 cores on a single 4-core node are unsatisfiable
	// even though each slot alone fits: the dry run must track
	// tentative usage.
	g := buildSmall(t, 1, 1, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	ok, err := tr.MatchSatisfy(jobspec.NodeLocal(1, 2, 3, 0, 0, 10))
	if err != nil || ok {
		t.Fatalf("two 3-core slots on a 4-core node: ok=%v err=%v", ok, err)
	}
}

func TestExclusiveNodeBlocksSharing(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})

	// Job 1 takes node exclusively (slot at cluster level over nodes).
	js := jobspec.New(100, jobspec.SlotR(1, jobspec.R("node", 1, jobspec.R("core", 2))))
	if _, err := tr.MatchAllocate(1, js, 0); err != nil {
		t.Fatal(err)
	}
	// Job 2 wants 4 cores on one node: only node1 has 4 free cores
	// (node0 is exclusively held even though only 2 cores are spanned).
	alloc, err := tr.MatchAllocate(2, jobspec.NodeLocal(1, 1, 4, 0, 0, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range alloc.Vertices {
		if va.V.Type == "core" && va.V.Parent().Name == "node0" {
			t.Fatalf("core from exclusively-held node0 granted: %s", va.V.Path())
		}
	}
	// A third exclusive-node job must fail (node1 now has shared users).
	if _, err := tr.MatchAllocate(3, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("exclusive over busy node: %v", err)
	}
}

func TestRackLevelSlots(t *testing.T) {
	// Paper Figure 4b shape: 2 racks, slots of 2 nodes each with 4 cores.
	g := buildSmall(t, 2, 3, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.New(100,
		jobspec.R("rack", 2,
			jobspec.SlotR(1,
				jobspec.R("node", 2, jobspec.R("core", 4)))))
	alloc, err := tr.MatchAllocate(1, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := alloc.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(nodes))
	}
	racks := map[string]int{}
	for _, n := range nodes {
		racks[n.Parent().Name]++
	}
	if len(racks) != 2 || racks["rack0"] != 2 || racks["rack1"] != 2 {
		t.Fatalf("rack spread = %v", racks)
	}
}

func TestPolicyOrdering(t *testing.T) {
	g := buildSmall(t, 1, 4, 2, 16, defaultSpec())

	trHigh := newT(t, g, match.HighID{})
	alloc, err := trHigh.MatchAllocate(1, jobspec.NodeLocal(1, 1, 1, 0, 0, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := alloc.Nodes()[0]; n.Name != "node3" {
		t.Fatalf("high policy picked %s", n.Name)
	}
	if err := trHigh.Cancel(1); err != nil {
		t.Fatal(err)
	}

	trLow := newT(t, g, match.LowID{})
	alloc, err = trLow.MatchAllocate(2, jobspec.NodeLocal(1, 1, 1, 0, 0, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := alloc.Nodes()[0]; n.Name != "node0" {
		t.Fatalf("low policy picked %s", n.Name)
	}
}

func TestVariationPolicyPacksClasses(t *testing.T) {
	g := buildSmall(t, 1, 8, 2, 16, defaultSpec())
	// Classes: nodes 0-1 class 1, nodes 2-5 class 2, nodes 6-7 class 3.
	classes := []string{"1", "1", "2", "2", "2", "2", "3", "3"}
	for i, n := range g.ByType("node") {
		n.SetProperty(match.PerfClassKey, classes[i])
	}
	tr := newT(t, g, match.NewVariation(""))

	// A 4-node job fits entirely in class 2.
	alloc, err := tr.MatchAllocate(1, jobspec.NodeLocal(4, 1, 1, 0, 0, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	v := match.NewVariation("")
	for _, n := range alloc.Nodes() {
		if c := v.ClassOf(n, -1); c != 2 {
			t.Fatalf("node %s in class %d, want 2", n.Name, c)
		}
	}
	// A 2-node job now best-fits class 1 or 3 (both exactly 2 free).
	alloc2, err := tr.MatchAllocate(2, jobspec.NodeLocal(2, 1, 1, 0, 0, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, n := range alloc2.Nodes() {
		got[v.ClassOf(n, -1)] = true
	}
	if len(got) != 1 {
		t.Fatalf("2-node job spread across classes: %v", got)
	}
}

func TestDownVertexExcluded(t *testing.T) {
	g := buildSmall(t, 1, 2, 2, 16, defaultSpec())
	g.ByType("node")[0].Status = resgraph.StatusDown
	tr := newT(t, g, match.First{})
	alloc, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 2, 0, 0, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Nodes()[0].Name != "node1" {
		t.Fatalf("matched down node: %s", alloc.Nodes()[0].Name)
	}
	// Both nodes needed -> impossible with one down.
	if _, err := tr.MatchAllocate(2, jobspec.NodeLocal(2, 1, 1, 0, 0, 10), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("want ErrNoMatch, got %v", err)
	}
}

func TestInvalidJobspecRejected(t *testing.T) {
	g := buildSmall(t, 1, 1, 2, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	bad := jobspec.New(10, jobspec.R("node", 0))
	if _, err := tr.MatchAllocate(1, bad, 0); !errors.Is(err, jobspec.ErrInvalid) {
		t.Fatalf("invalid jobspec: %v", err)
	}
}

func TestPooledResourceSpansMultipleVertices(t *testing.T) {
	// Node with 2 memory pools of 8 GB each; a 12 GB request must span
	// both pools.
	g := resgraph.NewGraph(0, 1000)
	cl := g.MustAddVertex("cluster", -1, 1)
	nd := g.MustAddVertex("node", -1, 1)
	if err := g.AddContainment(cl, nd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := g.MustAddVertex("memory", -1, 8)
		if err := g.AddContainment(nd, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	tr := newT(t, g, match.First{})
	js := jobspec.New(10, jobspec.R("node", 1, jobspec.SlotR(1, jobspec.R("memory", 12))))
	alloc, err := tr.MatchAllocate(1, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	pools := 0
	for _, va := range alloc.Vertices {
		if va.V.Type == "memory" {
			total += va.Units
			pools++
		}
	}
	if total != 12 || pools != 2 {
		t.Fatalf("memory: %d units over %d pools", total, pools)
	}
	// 4 more GB fit (16-12); a 5th does not.
	if _, err := tr.MatchAllocate(2, jobspec.New(10, jobspec.R("node", 1, jobspec.SlotR(1, jobspec.R("memory", 3)))), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocate(3, jobspec.New(10, jobspec.R("node", 1, jobspec.SlotR(1, jobspec.R("memory", 1)))), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocate(4, jobspec.New(10, jobspec.R("node", 1, jobspec.SlotR(1, jobspec.R("memory", 1)))), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("over-capacity memory: %v", err)
	}
}

func TestReservationThenCancelRestoresFilters(t *testing.T) {
	g := buildSmall(t, 1, 1, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 4, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	alloc, err := tr.MatchAllocateOrReserve(2, jobspec.NodeLocal(1, 1, 4, 0, 0, 100), 0)
	if err != nil || !alloc.Reserved {
		t.Fatalf("reserve: %+v, %v", alloc, err)
	}
	// Cancel the reservation; a new reservation lands at the same time.
	if err := tr.Cancel(2); err != nil {
		t.Fatal(err)
	}
	alloc3, err := tr.MatchAllocateOrReserve(3, jobspec.NodeLocal(1, 1, 4, 0, 0, 100), 0)
	if err != nil || alloc3.At != 100 {
		t.Fatalf("re-reserve: %+v, %v", alloc3, err)
	}
}

func TestMatchOnAlternateSubsystem(t *testing.T) {
	// A "storage" subsystem overlays the containment tree: the cluster
	// feeds two rabbits holding ssd pools.
	g := resgraph.NewGraph(0, 1000)
	cl := g.MustAddVertex("cluster", -1, 1)
	for i := 0; i < 2; i++ {
		r := g.MustAddVertex("rabbit", -1, 1)
		if err := g.AddContainment(cl, r); err != nil {
			t.Fatal(err)
		}
		s := g.MustAddVertex("ssd", -1, 1024)
		if err := g.AddContainment(r, s); err != nil {
			t.Fatal(err)
		}
		// Storage overlay edges.
		if err := g.AddEdge(cl, r, "storage", "feeds"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(r, s, "storage", "holds"); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetRoot("storage", cl)
	tr, err := New(g, match.First{}, WithSubsystem("storage"))
	if err != nil {
		t.Fatal(err)
	}
	js := jobspec.New(10, jobspec.R("rabbit", 1, jobspec.SlotR(1, jobspec.R("ssd", 512))))
	alloc, err := tr.MatchAllocate(1, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	var units int64
	for _, va := range alloc.Vertices {
		if va.V.Type == "ssd" {
			units += va.Units
		}
	}
	if units != 512 {
		t.Fatalf("ssd units = %d", units)
	}
}

func TestReleaseShrinksAllocation(t *testing.T) {
	g := buildSmall(t, 1, 4, 4, 16, defaultSpec())
	tr := newT(t, g, match.LowID{})
	js := jobspec.New(1000, jobspec.RX("node", 3, jobspec.R("core", 4)))
	alloc, err := tr.MatchAllocate(1, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc.Nodes()) != 3 {
		t.Fatalf("nodes = %d", len(alloc.Nodes()))
	}
	root := g.Root(resgraph.Containment)
	coreAvail := func() int64 {
		a, err := filterMember(g, root, "core").AvailDuring(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if coreAvail() != 4 { // 16 - 12
		t.Fatalf("core avail = %d", coreAvail())
	}

	// Release node0 and its cores.
	paths := []string{"/cluster0/rack0/node0"}
	for i := 0; i < 4; i++ {
		paths = append(paths, fmt.Sprintf("/cluster0/rack0/node0/core%d", i))
	}
	if err := tr.Release(1, paths); err != nil {
		t.Fatal(err)
	}
	alloc, _ = tr.Info(1)
	if len(alloc.Nodes()) != 2 {
		t.Fatalf("nodes after release = %d", len(alloc.Nodes()))
	}
	if coreAvail() != 8 {
		t.Fatalf("core avail after release = %d", coreAvail())
	}
	// node0 is schedulable again.
	if _, err := tr.MatchAllocate(2, jobspec.New(10, jobspec.RX("node", 2, jobspec.R("core", 4))), 0); err != nil {
		t.Fatalf("freed node not reusable: %v", err)
	}

	// Bad path changes nothing.
	if err := tr.Release(1, []string{"/nope"}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("bad path: %v", err)
	}
	if err := tr.Release(99, nil); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("bad job: %v", err)
	}
}

func TestReleaseEverythingCancels(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	alloc, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.RX("node", 1, jobspec.R("core", 4))), 0)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, va := range alloc.Vertices {
		paths = append(paths, va.V.Path())
	}
	if err := tr.Release(1, paths); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Info(1); ok {
		t.Fatal("job should be gone after full release")
	}
	if err := tr.Cancel(1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel after full release: %v", err)
	}
}

func TestNetworkSubsystemBandwidth(t *testing.T) {
	// Paper Figure 1b: an IB core switch is a conduit to edge switches,
	// each a conduit to nodes, with bandwidth pools at each level. The
	// network subsystem overlays the containment tree; matching on it
	// allocates bandwidth along the conduit hierarchy. Requests for a
	// bare type accumulate across all pools beneath the match point
	// (the same flattening that makes racks transparent), so level
	// pinning uses the switch vertices.
	g := resgraph.NewGraph(0, 1000)
	cl := g.MustAddVertex("cluster", -1, 1)
	core := g.MustAddVertex("coreswitch", -1, 1)
	coreBW := g.MustAddVertex("bw", -1, 400) // 400 Gb/s at the core
	if err := g.AddContainment(cl, core); err != nil {
		t.Fatal(err)
	}
	if err := g.AddContainment(core, coreBW); err != nil {
		t.Fatal(err)
	}
	var edges []*resgraph.Vertex
	for i := 0; i < 2; i++ {
		edge := g.MustAddVertex("edgeswitch", -1, 1)
		ebw := g.MustAddVertex("bw", -1, 100)
		if err := g.AddContainment(core, edge); err != nil {
			t.Fatal(err)
		}
		if err := g.AddContainment(edge, ebw); err != nil {
			t.Fatal(err)
		}
		// Network overlay: conduit_of edges.
		if err := g.AddEdge(core, edge, "network", "conduit_of"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(edge, ebw, "network", "provides"); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, edge)
	}
	if err := g.AddEdge(core, coreBW, "network", "provides"); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetRoot("network", core)

	tr, err := New(g, match.First{}, WithSubsystem("network"))
	if err != nil {
		t.Fatal(err)
	}
	// 60 Gb/s pinned to one edge switch.
	js := jobspec.New(100,
		jobspec.R("edgeswitch", 1, jobspec.SlotR(1, jobspec.R("bw", 60))))
	if _, err := tr.MatchAllocate(1, js, 0); err != nil {
		t.Fatal(err)
	}
	// A second 60 must use the other edge switch (the first has 40
	// left and a slot cannot split across switches).
	alloc2, err := tr.MatchAllocate(2, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	usedEdge1 := false
	for _, va := range alloc2.Vertices {
		if va.V.Parent() == edges[1] && va.Units > 0 {
			usedEdge1 = true
		}
	}
	if !usedEdge1 {
		t.Fatalf("second job should use edgeswitch1: %s", alloc2.Describe())
	}
	// Third 60: 40+40 edge capacity remains but never on one switch.
	if _, err := tr.MatchAllocate(3, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("fragmented edge bandwidth: %v", err)
	}
	// A bare bw request drains every pool under the core switch:
	// 40 + 40 + 400 = 480 remain.
	if _, err := tr.MatchAllocate(4, jobspec.New(100, jobspec.R("bw", 460)), 0); err != nil {
		t.Fatalf("pooled bandwidth should fit: %v", err)
	}
	if _, err := tr.MatchAllocate(5, jobspec.New(100, jobspec.R("bw", 30)), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("only 20 Gb/s remain, 30 must fail: %v", err)
	}
}

func TestMoldableLeafRequest(t *testing.T) {
	// A node with 4 cores, 1 already busy: a moldable 2-8 core request
	// gets the 3 remaining.
	g := buildSmall(t, 1, 1, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	if _, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.SlotR(1, jobspec.R("core", 1))), 0); err != nil {
		t.Fatal(err)
	}
	js := jobspec.New(100, jobspec.SlotR(1, jobspec.Moldable("core", 2, 8)))
	alloc, err := tr.MatchAllocate(2, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cores int64
	for _, va := range alloc.Vertices {
		if va.V.Type == "core" {
			cores += va.Units
		}
	}
	if cores != 3 {
		t.Fatalf("moldable grant = %d cores, want 3", cores)
	}
	// Below the floor: only 0 cores remain.
	if _, err := tr.MatchAllocate(3, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("below min: %v", err)
	}
}

func TestMoldableSlots(t *testing.T) {
	// 3 free nodes; a moldable 2-8 node-slot job gets 3 instances.
	g := buildSmall(t, 1, 3, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	slot := jobspec.Moldable(jobspec.Slot, 2, 8, jobspec.R("node", 1, jobspec.R("core", 4)))
	alloc, err := tr.MatchAllocate(1, jobspec.New(100, slot), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(alloc.Nodes()); n != 3 {
		t.Fatalf("moldable slots = %d nodes, want 3", n)
	}
	// Nothing left: the floor of 2 cannot be met.
	if _, err := tr.MatchAllocate(2, jobspec.New(100, slot), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("below min slots: %v", err)
	}
}

func TestMoldableSatisfiability(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	// min 2 nodes fits the 2-node system even though max is 16.
	js := jobspec.New(10, jobspec.Moldable(jobspec.Slot, 2, 16, jobspec.R("node", 1, jobspec.R("core", 4))))
	ok, err := tr.MatchSatisfy(js)
	if err != nil || !ok {
		t.Fatalf("moldable satisfy = %v, %v", ok, err)
	}
	// min 3 exceeds the system.
	js3 := jobspec.New(10, jobspec.Moldable(jobspec.Slot, 3, 16, jobspec.R("node", 1, jobspec.R("core", 4))))
	ok, err = tr.MatchSatisfy(js3)
	if err != nil || ok {
		t.Fatalf("infeasible moldable = %v, %v", ok, err)
	}
}

func TestMoldableReservationUsesFloor(t *testing.T) {
	// System busy [0,100). A moldable 1-4 node job reserves at 100 and
	// then grabs everything available there.
	g := buildSmall(t, 1, 4, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	if _, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.RX("node", 4, jobspec.R("core", 4))), 0); err != nil {
		t.Fatal(err)
	}
	js := jobspec.New(50, jobspec.Moldable(jobspec.Slot, 1, 4, jobspec.R("node", 1, jobspec.R("core", 4))))
	alloc, err := tr.MatchAllocateOrReserve(2, js, 0)
	if err != nil || !alloc.Reserved || alloc.At != 100 {
		t.Fatalf("alloc = %+v, %v", alloc, err)
	}
	if n := len(alloc.Nodes()); n != 4 {
		t.Fatalf("reserved moldable grabbed %d nodes, want 4", n)
	}
}

func TestReinstall(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	alloc, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 2, 4, 0, 100), 0)
	if err != nil {
		t.Fatal(err)
	}
	grants := alloc.Grants()
	if len(grants) != len(alloc.Vertices) {
		t.Fatalf("grants = %d", len(grants))
	}
	if err := tr.Cancel(1); err != nil {
		t.Fatal(err)
	}
	// Reinstall reproduces the allocation exactly.
	back, err := tr.Reinstall(1, alloc.At, alloc.Duration, false, grants)
	if err != nil {
		t.Fatal(err)
	}
	if back.Describe() != alloc.Describe() {
		t.Fatalf("describe mismatch:\n%s\n%s", back.Describe(), alloc.Describe())
	}
	// Filters were updated: root sees 2 cores busy.
	root := g.Root(resgraph.Containment)
	avail, err := filterMember(g, root, "core").AvailDuring(0, 10)
	if err != nil || avail != 6 {
		t.Fatalf("root core avail = %d, %v", avail, err)
	}
	// Errors: duplicate ID, unknown path, conflicting capacity, bad
	// duration.
	if _, err := tr.Reinstall(1, 0, 10, false, grants); !errors.Is(err, ErrExists) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := tr.Reinstall(2, 0, 10, false, []Grant{{Path: "/nope", Units: 1}}); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("bad path: %v", err)
	}
	if _, err := tr.Reinstall(2, 0, 0, false, nil); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("bad duration: %v", err)
	}
	// Conflicting: re-claim the same cores under a new ID.
	if _, err := tr.Reinstall(2, alloc.At, alloc.Duration, false, grants); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("conflict: %v", err)
	}
	// Atomic rollback on conflict: capacity unchanged.
	avail2, _ := filterMember(g, root, "core").AvailDuring(0, 10)
	if avail2 != 6 {
		t.Fatalf("conflict leaked spans: avail = %d", avail2)
	}
}

func TestMaxReserveDepth(t *testing.T) {
	// 2 nodes x 2 cores, fragmented so that at the first candidate time
	// the aggregate fits but no single node does: the reservation needs
	// a second probe, which depth 1 forbids.
	g := buildSmall(t, 1, 2, 2, 0, defaultSpec())
	tr, err := New(g, match.First{})
	if err != nil {
		t.Fatal(err)
	}
	tr.maxReserveDepth = 1
	if tr.Graph() != g || tr.Policy().Name() != "first" {
		t.Fatal("accessors")
	}
	durations := []int64{100, 300, 100, 300}
	for i, d := range durations {
		if _, err := tr.MatchAllocate(int64(i+1), jobspec.NodeLocal(1, 1, 1, 0, 0, d), 0); err != nil {
			t.Fatal(err)
		}
	}
	// At t=100 each node has 1 free core (aggregate 2), so the filter
	// proposes t=100 but a 2-core single-node slot cannot match there.
	js := jobspec.NodeLocal(1, 1, 2, 0, 0, 50)
	if _, err := tr.MatchAllocateOrReserve(5, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("depth-1 should give up: %v", err)
	}
	// With the default depth the same request reserves at t=300.
	tr2 := newT(t, g, match.First{})
	alloc, err := tr2.MatchAllocateOrReserve(5, js, 0)
	if err != nil || !alloc.Reserved || alloc.At != 300 {
		t.Fatalf("alloc = %+v, %v", alloc, err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, match.First{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := resgraph.NewGraph(0, 100)
	g.MustAddVertex("cluster", -1, 1)
	if _, err := New(g, match.First{}); err == nil {
		t.Fatal("unfinalized graph accepted")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Unknown subsystem root.
	if _, err := New(g, match.First{}, WithSubsystem("nope")); err == nil {
		t.Fatal("unknown subsystem accepted")
	}
	// Nil policy defaults to first.
	tr, err := New(g, nil)
	if err != nil || tr.Policy().Name() != "first" {
		t.Fatalf("nil policy: %v", err)
	}
}

func TestAffectedJobsAndEvict(t *testing.T) {
	g := buildSmall(t, 2, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	// j1 on node0+node1 (rack0), j2 on node2 (rack1).
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(2, 1, 4, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocate(2, jobspec.NodeLocal(1, 1, 4, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	a1, _ := tr.Info(1)
	a2, _ := tr.Info(2)
	if len(a1.Nodes()) != 2 || len(a2.Nodes()) != 1 {
		t.Fatalf("layout: j1=%s j2=%s", a1.Describe(), a2.Describe())
	}
	n0 := a1.Nodes()[0]
	other := a2.Nodes()[0]

	got := tr.AffectedJobs(n0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("affected(%s) = %v", n0.Path(), got)
	}
	if got := tr.AffectedJobs(g.Root(resgraph.Containment)); len(got) != 2 {
		t.Fatalf("affected(root) = %v", got)
	}
	// node1's subtree must not swallow node10, whose path has node1's as a
	// string prefix: 10 nodes go to job 10, the 11th (node10) to job 11.
	g11 := buildSmall(t, 1, 11, 1, 0, defaultSpec())
	tr11 := newT(t, g11, match.First{})
	if _, err := tr11.MatchAllocate(10, jobspec.NodeLocal(10, 1, 1, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	a11, err := tr11.MatchAllocate(11, jobspec.NodeLocal(1, 1, 1, 0, 0, 100), 0)
	if err != nil || a11.Nodes()[0].Path() != "/cluster0/rack0/node10" {
		t.Fatalf("job 11: %v", err)
	}
	if err := tr11.Cancel(10); err != nil {
		t.Fatal(err)
	}
	node1 := g11.ByPath("/cluster0/rack0/node1")
	if got := tr11.AffectedJobs(node1); len(got) != 0 {
		t.Fatalf("affected(node1) = %v, want none (job 11 is on node10)", got)
	}
	if got := tr11.AffectedJobs(a11.Nodes()[0]); len(got) != 1 || got[0] != 11 {
		t.Fatalf("affected(node10) = %v", got)
	}

	if tr.JobCount() != 2 {
		t.Fatalf("JobCount = %d", tr.JobCount())
	}
	evicted, err := tr.Evict(1)
	if err != nil || evicted == nil || evicted.JobID != 1 {
		t.Fatalf("evict: %+v, %v", evicted, err)
	}
	if tr.JobCount() != 1 {
		t.Fatalf("JobCount after evict = %d", tr.JobCount())
	}
	if _, err := tr.Evict(1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("double evict: %v", err)
	}
	// Evicted capacity is reusable immediately.
	if _, err := tr.MatchAllocate(3, jobspec.NodeLocal(2, 1, 4, 0, 0, 100), 0); err != nil {
		t.Fatalf("reuse after evict: %v", err)
	}
	_ = other
}

func TestMarkDownEvictsAndExcludesCapacity(t *testing.T) {
	g := buildSmall(t, 2, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	root := g.Root(resgraph.Containment)

	// Fill one node with j1; leave the rest idle.
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(1, 1, 4, 0, 0, 1000), 0); err != nil {
		t.Fatal(err)
	}
	a1, _ := tr.Info(1)
	victim := a1.Nodes()[0].Path()

	evicted, err := tr.MarkDown(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].JobID != 1 {
		t.Fatalf("evicted = %+v", evicted)
	}
	if tr.JobCount() != 0 {
		t.Fatal("job survived MarkDown")
	}
	// The job's core units are reported for lost-work accounting.
	if evicted[0].Units("core") != 4 {
		t.Fatalf("units = %d", evicted[0].Units("core"))
	}

	// Regression: the root filter aggregates exclude the downed subtree,
	// so a request needing all 4 nodes is rejected at the fast-fail
	// check rather than after a deep traversal.
	if avail, _ := filterMember(g, root, "node").AvailDuring(0, 1); avail != 3 {
		t.Fatalf("root node aggregate = %d", avail)
	}
	if avail, _ := filterMember(g, root, "core").AvailDuring(0, 1); avail != 12 {
		t.Fatalf("root core aggregate = %d", avail)
	}
	if _, err := tr.MatchAllocate(2, jobspec.NodeLocal(4, 1, 4, 0, 0, 10), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("4-node job on 3-node system: %v", err)
	}
	// MatchSatisfy sees only surviving capacity.
	if ok, _ := tr.MatchSatisfy(jobspec.NodeLocal(4, 1, 4, 0, 0, 10)); ok {
		t.Fatal("satisfy ignored downed node")
	}
	if ok, _ := tr.MatchSatisfy(jobspec.NodeLocal(3, 1, 4, 0, 0, 10)); !ok {
		t.Fatal("3 nodes should remain satisfiable")
	}

	// Reservations route around the downed node.
	if _, err := tr.MatchAllocate(3, jobspec.NodeLocal(3, 1, 4, 0, 0, 50), 0); err != nil {
		t.Fatal(err)
	}
	res, err := tr.MatchAllocateOrReserve(4, jobspec.NodeLocal(3, 1, 4, 0, 0, 10), 0)
	if err != nil || !res.Reserved || res.At != 50 {
		t.Fatalf("reserve around failure: %+v, %v", res, err)
	}

	// Repair: capacity returns and the 4-node job fits again.
	if err := tr.MarkUp(victim); err != nil {
		t.Fatal(err)
	}
	if avail, _ := filterMember(g, root, "node").AvailDuring(0, 1); avail != 4 {
		t.Fatalf("restored node aggregate = %d", avail)
	}
	if ok, _ := tr.MatchSatisfy(jobspec.NodeLocal(4, 1, 4, 0, 0, 10)); !ok {
		t.Fatal("repair did not restore satisfiability")
	}
}

func TestMarkDownSubtreeWithMultiNodeJob(t *testing.T) {
	// A rack failure evicts a job spanning nodes in that rack even when
	// the job also holds grants elsewhere? (Jobs are placed per-policy;
	// here j1 spans both racks, so downing either rack evicts it.)
	g := buildSmall(t, 2, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(3, 1, 4, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	evicted, err := tr.MarkDown("/cluster0/rack1")
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].JobID != 1 {
		t.Fatalf("evicted = %+v", evicted)
	}
	// Only rack0's 2 nodes remain.
	if ok, _ := tr.MatchSatisfy(jobspec.NodeLocal(3, 1, 4, 0, 0, 10)); ok {
		t.Fatal("3 nodes satisfiable with a rack down")
	}
	if _, err := tr.MatchAllocate(2, jobspec.NodeLocal(2, 1, 4, 0, 0, 10), 0); err != nil {
		t.Fatalf("surviving rack unusable: %v", err)
	}
	if err := tr.MarkUp("/cluster0/rack1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MarkDown("/nowhere"); err == nil {
		t.Fatal("unknown path accepted")
	}
	if err := tr.MarkUp("/nowhere"); err == nil {
		t.Fatal("unknown path accepted")
	}
}
