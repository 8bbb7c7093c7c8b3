package traverser

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// TestVertexAllocPacking pins the allocation entry at three words (see
// resgraph's TestVertexPacking): "covered" is a consuming entry with span
// 0, not a field of its own.
func TestVertexAllocPacking(t *testing.T) {
	if got, max := unsafe.Sizeof(VertexAlloc{}), uintptr(24); got > max {
		t.Fatalf("sizeof(VertexAlloc) = %d, budget %d", got, max)
	}
}

// checkPlanners fails t when tr's planners drift from its table at any of
// the instants.
func checkPlanners(t *testing.T, tr *Traverser, ats ...int64) {
	t.Helper()
	for _, at := range ats {
		if err := tr.CheckPlanners(at); err != nil {
			t.Fatalf("at %d: %v", at, err)
		}
	}
}

// vertexSpans counts the spans on the vertex planners of g.
func vertexSpans(g *resgraph.Graph) (n int) {
	for _, v := range g.Vertices() {
		n += v.Planner().SpanCount()
	}
	return n
}

// TestCoveredClaimPlansOneSpan: a job that takes a node and every core on
// it plans one vertex span, on the node; the filters count its cores as
// before. One that takes the node whole but only some of its cores plans
// every span, and so does a shared one.
func TestCoveredClaimPlansOneSpan(t *testing.T) {
	g := buildSmall(t, 1, 3, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	node := func(n int64) *resgraph.Vertex { return g.ByPath("/cluster0/rack0/node" + string(rune('0'+n))) }
	a, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.RX("node", 1, jobspec.R("core", 4))), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := vertexSpans(g); n != 1 || node(0).Planner().SpanCount() != 1 {
		t.Fatalf("whole node: %d vertex spans, want 1 on node0", n)
	}
	covered := 0
	for i := range a.Vertices {
		if a.Vertices[i].covered() {
			covered++
		}
	}
	if covered != 4 || a.Units("core") != 4 {
		t.Fatalf("covered entries %d, core units %d; want 4 and 4", covered, a.Units("core"))
	}
	if avail, _ := filterMember(g, node(0), "core").AvailDuring(0, 100); avail != 0 {
		t.Fatalf("node0's core filter reads %d free, want 0", avail)
	}
	if _, err := tr.MatchAllocate(2, jobspec.New(100, jobspec.RX("node", 1, jobspec.R("core", 2))), 0); err != nil {
		t.Fatal(err)
	}
	if n := vertexSpans(g); n != 1+3 {
		t.Fatalf("whole node with half its cores: %d vertex spans, want 4", n)
	}
	if _, err := tr.MatchAllocate(3, jobspec.New(100, jobspec.R("node", 1, jobspec.R("core", 4))), 0); err != nil {
		t.Fatal(err)
	}
	if n := vertexSpans(g); n != 4+4 {
		t.Fatalf("shared node: %d vertex spans, want 8", n)
	}
	checkPlanners(t, tr, 0, 99, 100)
	for _, id := range []int64{1, 2, 3} {
		if err := tr.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := vertexSpans(g); n != 0 {
		t.Fatalf("cancel left %d vertex spans", n)
	}
	// A rack taken whole is one span, on the rack.
	if _, err := tr.MatchAllocate(4, jobspec.New(100, jobspec.RX("rack", 1, jobspec.R("node", 3, jobspec.R("core", 4)))), 0); err != nil {
		t.Fatal(err)
	}
	if n := vertexSpans(g); n != 1 || g.ByPath("/cluster0/rack0").Planner().SpanCount() != 1 {
		t.Fatalf("whole rack: %d vertex spans, want 1 on rack0", n)
	}
	checkPlanners(t, tr, 0, 50)
}

// TestReinstallChecksCoveredVertices: a grant set conflicts with a live
// job on a vertex that one of them covers. Reinstall refuses it, and
// changes no availability — also when no filter beneath the root would
// see the conflict.
func TestReinstallChecksCoveredVertices(t *testing.T) {
	for _, spec := range []resgraph.PruneSpec{defaultSpec(), {"cluster": {"core", "node"}}} {
		reinstallOverCovered(t, spec)
	}
}

func reinstallOverCovered(t *testing.T, spec resgraph.PruneSpec) {
	g := buildSmall(t, 1, 2, 4, 0, spec)
	tr := newT(t, g, match.First{})
	node0 := []Grant{{Path: "/cluster0/rack0/node0", Units: 1}}
	for c := 0; c < 4; c++ {
		node0 = append(node0, Grant{Path: "/cluster0/rack0/node0/core" + string(rune('0'+c)), Units: 1})
	}
	// A shared job holds one core of node0: the grant set covers it.
	if _, err := tr.Reinstall(1, 0, 100, false, []Grant{{Path: "/cluster0/rack0/node0/core2", Units: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Reinstall(2, 50, 100, false, shuffled(rand.New(rand.NewSource(1)), node0)); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("whole node over a held core: %v", err)
	}
	checkPlanners(t, tr, 0, 60, 120)
	if n := vertexSpans(g); n != 1 {
		t.Fatalf("refused reinstall left %d vertex spans, want 1", n)
	}
	if err := tr.Cancel(1); err != nil {
		t.Fatal(err)
	}
	// A live job covers node0's cores: one of them, granted alone,
	// conflicts.
	if _, err := tr.Reinstall(3, 0, 100, false, node0); err != nil {
		t.Fatal(err)
	}
	if n := vertexSpans(g); n != 1 {
		t.Fatalf("whole node reinstalled with %d vertex spans, want 1", n)
	}
	if _, err := tr.Reinstall(4, 99, 10, false, node0[3:4]); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("core under a whole claim: %v", err)
	}
	checkPlanners(t, tr, 0, 99, 100)
	// Outside the claim's window both fit.
	if _, err := tr.Reinstall(5, 100, 10, false, node0[3:4]); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Reinstall(6, 110, 10, false, node0); err != nil {
		t.Fatal(err)
	}
	checkPlanners(t, tr, 0, 100, 110)
}

// TestReleaseUncoversFirst: releasing part of a covered claim — cores
// beneath the node, or the node above its cores — leaves every kept entry
// planned, and the released capacity free.
func TestReleaseUncoversFirst(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	a, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.RX("node", 2, jobspec.R("core", 4))), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := vertexSpans(g); n != 2 {
		t.Fatalf("%d vertex spans, want 2", n)
	}
	nodes := a.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Path() < nodes[j].Path() })
	n0, n1 := nodes[0].Path(), nodes[1].Path()
	if err := tr.Release(1, []string{n0 + "/core0", n0 + "/core1"}); err != nil {
		t.Fatal(err)
	}
	checkPlanners(t, tr, 0, 50)
	if err := tr.Release(1, []string{n1}); err != nil {
		t.Fatal(err)
	}
	checkPlanners(t, tr, 0, 50)
	// Node1's cores are still the job's, and the two cores it gave up
	// sit under node0, which it still holds whole: no core is free.
	if n := vertexSpans(g); n != 1+2+4 {
		t.Fatalf("%d vertex spans, want 7", n)
	}
	if _, err := tr.MatchAllocate(2, jobspec.New(10, jobspec.R("core", 1)), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("a core under a node the job holds: %v", err)
	}
	if err := tr.Release(1, []string{n0}); err != nil {
		t.Fatal(err)
	}
	checkPlanners(t, tr, 0, 50)
	if _, err := tr.MatchAllocate(2, jobspec.New(10, jobspec.R("core", 3)), 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("three cores while the job holds six of eight: %v", err)
	}
	if _, err := tr.MatchAllocate(2, jobspec.New(10, jobspec.R("core", 2)), 0); err != nil {
		t.Fatal(err)
	}
	checkPlanners(t, tr, 0, 5, 50)
}

// TestDetachUnderCoveredClaim: a vertex a job holds through a covering
// claim above it cannot be detached, whether or not the covering vertex
// carries a filter that would refuse to give it up; once the job ends it
// can.
func TestDetachUnderCoveredClaim(t *testing.T) {
	for _, spec := range []resgraph.PruneSpec{defaultSpec(), {"cluster": {"core", "node"}}} {
		g := buildSmall(t, 1, 2, 4, 0, spec)
		tr := newT(t, g, match.First{})
		if _, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.RX("node", 1, jobspec.R("core", 4))), 0); err != nil {
			t.Fatal(err)
		}
		core := "/cluster0/rack0/node0/core3"
		if err := tr.Detach(core); !errors.Is(err, resgraph.ErrBusy) {
			t.Fatalf("filter on node0 %v: detach under the claim: %v", g.ByPath("/cluster0/rack0/node0").Filter() != nil, err)
		}
		checkPlanners(t, tr, 0)
		if err := tr.Cancel(1); err != nil {
			t.Fatal(err)
		}
		if err := tr.Detach(core); err != nil {
			t.Fatal(err)
		}
		checkPlanners(t, tr, 0)
	}
}

// TestMarkDownCoveredVertex: failing a core a job holds through its
// node's covering claim evicts the job; failing another node's core does
// not.
func TestMarkDownCoveredVertex(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	if _, err := tr.MatchAllocate(1, jobspec.New(100, jobspec.RX("node", 1, jobspec.R("core", 4))), 0); err != nil {
		t.Fatal(err)
	}
	if got := tr.AffectedJobs(g.ByPath("/cluster0/rack0/node1/core0")); len(got) != 0 {
		t.Fatalf("node1's core affects %v", got)
	}
	evicted, err := tr.MarkDown("/cluster0/rack0/node0/core2")
	if err != nil || len(evicted) != 1 || evicted[0].JobID != 1 {
		t.Fatalf("evicted %v, %v; want job 1", evicted, err)
	}
	checkPlanners(t, tr, 0)
}

// TestCoveredClaimsMatchUncovered is the differential test of covered
// claims: on random graphs, under each of the five match policies
// (randomPolicy), through random matches, reservations, cancels,
// releases, reinstalls (conflicting ones, grants shuffled), status flips,
// grafts and detaches, a traverser that covers and one that plans every
// span end every operation the same, hold the same allocation table and
// filters, and keep planners that agree with the table (CheckPlanners).
func TestCoveredClaimsMatchUncovered(t *testing.T) {
	seen := make(map[string]int)
	for _, seed := range pairSeeds() {
		p := runIdlePair(t, rand.New(rand.NewSource(seed)), 400, coverOff)
		for k, n := range p.seen {
			seen[k] += n
		}
	}
	t.Logf("cases reached: %v", seen)
	for _, k := range []string{"release covered", "release covering", "markdown covered",
		"detach covered (filter above true)", "detach covered (filter above false)", "reinstall refused"} {
		if seen[k] == 0 {
			t.Errorf("the stream never reached %q", k)
		}
	}
}

// FuzzCoveredClaims runs the covered-claims differential test on
// operation streams drawn from the fuzz input.
func FuzzCoveredClaims(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("a whole node, a covered core released, a reinstall over it"))
	rng := rand.New(rand.NewSource(2))
	seed := make([]byte, 600)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		runIdlePair(t, &byteChooser{data: data}, min(len(data)/4, 300), coverOff)
	})
}

// filterUnits renders an allocation's filter spans as sorted
// "owner/type=units" lines.
func filterUnits(g *resgraph.Graph, a *Allocation) []string {
	var out []string
	for _, fs := range a.filterSpans {
		sp, err := fs.owner.Filter().PlannerByID(fs.typeID).Span(fs.span)
		if err != nil {
			panic(err)
		}
		out = append(out, fmt.Sprintf("%s/%s=%d", fs.owner.Path(), g.Types().Name(fs.typeID), sp.Planned))
	}
	sort.Strings(out)
	return out
}

// TestFoldCoveredFilters: SDFU folds a covering vertex's subtree into one
// add per filter, and records the same filter spans, with the same units,
// as a traverser that covers nothing: for whole nodes with memory, a rack
// taken whole (whose nodes carry filters of their own beneath the
// covering vertex), a shared node, and both whole claims reinstalled from
// shuffled grants.
func TestFoldCoveredFilters(t *testing.T) {
	specs := []*jobspec.Jobspec{
		jobspec.New(100, jobspec.RX("node", 2, jobspec.R("core", 4), jobspec.R("memory", 16))),
		jobspec.New(100, jobspec.RX("rack", 1, jobspec.R("node", 3, jobspec.R("core", 4), jobspec.R("memory", 16)))),
		jobspec.New(100, jobspec.R("node", 1, jobspec.R("core", 4), jobspec.R("memory", 16))),
	}
	var g [2]*resgraph.Graph
	var tr [2]*Traverser
	for i := range tr {
		g[i] = buildSmall(t, 2, 3, 4, 16, defaultSpec())
		tr[i] = newT(t, g[i], match.First{})
	}
	tr[1].cover.off = true
	rng := rand.New(rand.NewSource(1))
	for id, js := range specs {
		var got [2][]string
		covered := 0
		for i := range tr {
			a, err := tr[i].MatchAllocate(int64(id+1), js, 0)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = filterUnits(g[i], a)
			for j := range a.Vertices {
				if a.Vertices[j].covered() {
					covered++
				}
			}
		}
		if want := []int{10, 18, 0}[id]; covered != want {
			t.Fatalf("job %d: %d covered entries, want %d", id+1, covered, want)
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("job %d: filter spans\n%v\nwithout covering\n%v", id+1, got[0], got[1])
		}
		checkPlanners(t, tr[0], 0, 50)
	}
	for id := int64(1); id <= 2; id++ {
		var got [2][]string
		for i := range tr {
			a, _ := tr[i].Info(id)
			grants := shuffled(rng, a.Grants())
			if err := tr[i].Cancel(id); err != nil {
				t.Fatal(err)
			}
			b, err := tr[i].Reinstall(id, 10, 100, false, grants)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = filterUnits(g[i], b)
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatalf("reinstalled job %d: filter spans\n%v\nwithout covering\n%v", id, got[0], got[1])
		}
		checkPlanners(t, tr[0], 10, 60)
	}
}
