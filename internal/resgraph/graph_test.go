package resgraph

import (
	"errors"
	"reflect"
	"testing"

	"fluxion/internal/planner"
)

// buildTiny constructs cluster0 -> rack{0,1} -> node{0..3} -> 4 cores +
// 1 memory pool (size 16) each.
func buildTiny(t *testing.T, spec PruneSpec) *Graph {
	t.Helper()
	g := NewGraph(0, 1<<20)
	if spec != nil {
		if err := g.SetPruneSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
	cluster := g.MustAddVertex("cluster", -1, 1)
	for r := 0; r < 2; r++ {
		rack := g.MustAddVertex("rack", -1, 1)
		if err := g.AddContainment(cluster, rack); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 2; n++ {
			node := g.MustAddVertex("node", -1, 1)
			if err := g.AddContainment(rack, node); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 4; c++ {
				core := g.MustAddVertex("core", -1, 1)
				if err := g.AddContainment(node, core); err != nil {
					t.Fatal(err)
				}
			}
			mem := g.MustAddVertex("memory", -1, 16)
			mem.Unit = "GB"
			if err := g.AddContainment(node, mem); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFinalizePathsAndAggregates(t *testing.T) {
	g := buildTiny(t, nil)
	root := g.Root(Containment)
	if root == nil || root.Type != "cluster" {
		t.Fatalf("root = %v", root)
	}
	if root.Path() != "/cluster0" {
		t.Fatalf("root path = %q", root.Path())
	}
	n := g.ByPath("/cluster0/rack1/node3")
	if n == nil || n.Type != "node" || n.ID != 3 {
		t.Fatalf("ByPath = %+v", n)
	}
	wantRoot := map[string]int64{"cluster": 1, "rack": 2, "node": 4, "core": 16, "memory": 64}
	if !reflect.DeepEqual(root.Aggregates(), wantRoot) {
		t.Fatalf("root agg = %v, want %v", root.Aggregates(), wantRoot)
	}
	rack := g.ByPath("/cluster0/rack0")
	wantRack := map[string]int64{"rack": 1, "node": 2, "core": 8, "memory": 32}
	if !reflect.DeepEqual(rack.Aggregates(), wantRack) {
		t.Fatalf("rack agg = %v", rack.Aggregates())
	}
	// Every vertex has a planner sized to its pool.
	for _, v := range g.Vertices() {
		if v.Planner() == nil || v.Planner().Total() != v.Size {
			t.Fatalf("planner missing/sized wrong on %s", v.Name)
		}
	}
}

func TestParentChildNavigation(t *testing.T) {
	g := buildTiny(t, nil)
	node := g.ByPath("/cluster0/rack0/node1")
	if node.Parent().Name != "rack0" {
		t.Fatalf("Parent = %s", node.Parent().Name)
	}
	kids := node.Children(Containment)
	if len(kids) != 5 { // 4 cores + 1 memory
		t.Fatalf("children = %d", len(kids))
	}
	for _, c := range kids {
		if c.Type == "rack" || c.Type == "cluster" {
			t.Fatalf("reciprocal edge leaked into children: %s", c.Name)
		}
		if c.Parent() != node {
			t.Fatalf("child %s parent = %v", c.Name, c.Parent())
		}
	}
	if g.Root(Containment).Parent() != nil {
		t.Fatal("root must have nil parent")
	}
	count := 0
	node.EachChild(Containment, func(c *Vertex) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("EachChild early stop: %d", count)
	}
}

func TestPruneSpecParsing(t *testing.T) {
	spec, err := ParsePruneSpec("ALL:core,rack:node,node@gpu")
	if err != nil {
		t.Fatal(err)
	}
	want := PruneSpec{ALL: {"core"}, "rack": {"node"}, "node": {"gpu"}}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec = %v", spec)
	}
	if s, err := ParsePruneSpec("  "); err != nil || len(s) != 0 {
		t.Fatalf("empty spec: %v, %v", s, err)
	}
	for _, bad := range []string{"nocolon", ":core", "rack:"} {
		if _, err := ParsePruneSpec(bad); !errors.Is(err, ErrInvalid) {
			t.Errorf("ParsePruneSpec(%q): %v", bad, err)
		}
	}
}

func TestFilterInstallation(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core"}, "rack": {"node"}})
	root := g.Root(Containment)
	if root.Filter() == nil {
		t.Fatal("root filter missing")
	}
	if filterTotal(root, "core") != 16 {
		t.Fatalf("root core filter total = %d", filterTotal(root, "core"))
	}
	rack := g.ByPath("/cluster0/rack0")
	if rack.Filter() == nil || filterTotal(rack, "core") != 8 || filterTotal(rack, "node") != 2 {
		t.Fatalf("rack filter = %v", rack.Filter())
	}
	node := g.ByPath("/cluster0/rack0/node0")
	if node.Filter() == nil || filterTotal(node, "core") != 4 {
		t.Fatal("node filter missing core tracking")
	}
	// Leaves never carry filters.
	core := g.ByPath("/cluster0/rack0/node0/core0")
	if core.Filter() != nil {
		t.Fatal("leaf has a filter")
	}
	// Without a spec, no filters exist.
	g2 := buildTiny(t, nil)
	for _, v := range g2.Vertices() {
		if v.Filter() != nil {
			t.Fatalf("unexpected filter on %s", v.Name)
		}
	}
}

func TestFinalizeErrors(t *testing.T) {
	// Empty graph.
	if err := NewGraph(0, 100).Finalize(); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty: %v", err)
	}
	// Two roots.
	g := NewGraph(0, 100)
	g.MustAddVertex("a", -1, 1)
	g.MustAddVertex("b", -1, 1)
	if err := g.Finalize(); !errors.Is(err, ErrInvalid) {
		t.Errorf("two roots: %v", err)
	}
	// Double finalize.
	g2 := NewGraph(0, 100)
	g2.MustAddVertex("a", -1, 1)
	if err := g2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := g2.Finalize(); !errors.Is(err, ErrInvalid) {
		t.Errorf("double finalize: %v", err)
	}
	// Second parent rejected at AddContainment.
	g3 := NewGraph(0, 100)
	a := g3.MustAddVertex("a", -1, 1)
	b := g3.MustAddVertex("b", -1, 1)
	c := g3.MustAddVertex("c", -1, 1)
	if err := g3.AddContainment(a, c); err != nil {
		t.Fatal(err)
	}
	if err := g3.AddContainment(b, c); !errors.Is(err, ErrInvalid) {
		t.Errorf("second parent: %v", err)
	}
}

func TestAddVertexValidation(t *testing.T) {
	g := NewGraph(0, 100)
	if _, err := g.AddVertex("", -1, 1); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty type: %v", err)
	}
	if _, err := g.AddVertex("x", -1, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero size: %v", err)
	}
	v1 := g.MustAddVertex("node", -1, 1)
	v2 := g.MustAddVertex("node", -1, 1)
	if v1.ID != 0 || v2.ID != 1 || v2.Name != "node1" {
		t.Fatalf("auto IDs: %d %d %s", v1.ID, v2.ID, v2.Name)
	}
	v9 := g.MustAddVertex("node", 9, 1)
	v10 := g.MustAddVertex("node", -1, 1)
	if v9.ID != 9 || v10.ID != 10 {
		t.Fatalf("explicit ID then auto: %d %d", v9.ID, v10.ID)
	}
}

func TestByTypeAndStats(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core"}})
	if n := len(g.ByType("core")); n != 16 {
		t.Fatalf("cores = %d", n)
	}
	if n := len(g.ByType("nonexistent")); n != 0 {
		t.Fatalf("nonexistent = %d", n)
	}
	s := g.Stats()
	if s == "" || g.Len() != 27 {
		t.Fatalf("Stats = %q, Len = %d", s, g.Len())
	}
}

func TestMultiSubsystemOverlay(t *testing.T) {
	g := NewGraph(0, 1000)
	cluster := g.MustAddVertex("cluster", -1, 1)
	node := g.MustAddVertex("node", -1, 1)
	pdu := g.MustAddVertex("pdu", -1, 100) // 100 W power pool
	if err := g.AddContainment(cluster, node); err != nil {
		t.Fatal(err)
	}
	if err := g.AddContainment(cluster, pdu); err != nil {
		t.Fatal(err)
	}
	// Power subsystem overlay: pdu feeds the node.
	if err := g.AddEdge(pdu, node, "power", "supplies_to"); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	g.SetRoot("power", pdu)
	subs := g.Subsystems()
	if len(subs) != 2 || subs[0] != Containment || subs[1] != "power" {
		t.Fatalf("Subsystems = %v", subs)
	}
	if g.Root("power") != pdu {
		t.Fatal("power root")
	}
	kids := pdu.Children("power")
	if len(kids) != 1 || kids[0] != node {
		t.Fatalf("power children = %v", kids)
	}
	// Containment children of cluster must not include power edges.
	if len(cluster.Children(Containment)) != 2 {
		t.Fatalf("containment children = %v", cluster.Children(Containment))
	}
}

func TestAttachGrowsAggregatesAndFilters(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core"}})
	rack := g.ByPath("/cluster0/rack1")
	before := filterTotal(rack, "core")

	// Build a new node subtree post-finalize and attach it.
	node := g.MustAddVertex("node", -1, 1)
	for i := 0; i < 4; i++ {
		c := g.MustAddVertex("core", -1, 1)
		if err := g.AddContainment(node, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Attach(rack, node); err != nil {
		t.Fatal(err)
	}
	if node.Path() != "/cluster0/rack1/node4" {
		t.Fatalf("attached path = %q", node.Path())
	}
	if g.ByPath(node.Path()) != node {
		t.Fatal("ByPath does not find the attached node")
	}
	if got := filterTotal(rack, "core"); got != before+4 {
		t.Fatalf("rack core filter = %d, want %d", got, before+4)
	}
	if got := filterTotal(g.Root(Containment), "core"); got != 20 {
		t.Fatalf("root core filter = %d, want 20", got)
	}
	if got := g.Root(Containment).Aggregates()["core"]; got != 20 {
		t.Fatalf("root core agg = %d", got)
	}
	if node.Planner() == nil || node.Filter() == nil {
		t.Fatal("attached node missing planner/filter")
	}
}

func TestDetachShrinksAndRefusesBusy(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core"}})
	node := g.ByPath("/cluster0/rack0/node0")
	core := g.ByPath("/cluster0/rack0/node0/core0")

	// Busy subtree refuses detach.
	id, err := core.Planner().AddSpan(0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Detach(node); !errors.Is(err, ErrBusy) {
		t.Fatalf("busy detach: %v", err)
	}
	if err := core.Planner().RemoveSpan(id); err != nil {
		t.Fatal(err)
	}

	nVerts := g.Len()
	if err := g.Detach(node); err != nil {
		t.Fatal(err)
	}
	if g.Len() != nVerts-6 { // node + 4 cores + 1 memory
		t.Fatalf("Len = %d, want %d", g.Len(), nVerts-6)
	}
	if g.ByPath("/cluster0/rack0/node0") != nil {
		t.Fatal("ByPath still finds the detached vertex")
	}
	rack := g.ByPath("/cluster0/rack0")
	if got := filterTotal(rack, "core"); got != 4 {
		t.Fatalf("rack core filter = %d, want 4", got)
	}
	if got := g.Root(Containment).Aggregates()["core"]; got != 12 {
		t.Fatalf("root core agg = %d, want 12", got)
	}
	if len(rack.Children(Containment)) != 1 {
		t.Fatalf("rack children = %v", rack.Children(Containment))
	}
	// Detaching the root is rejected.
	if err := g.Detach(g.Root(Containment)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("detach root: %v", err)
	}
}

func TestProperties(t *testing.T) {
	g := buildTiny(t, nil)
	n := g.ByPath("/cluster0/rack0/node0")
	if n.Property("perfclass") != "" {
		t.Fatal("unset property should be empty")
	}
	n.SetProperty("perfclass", "3")
	if n.Property("perfclass") != "3" {
		t.Fatal("property roundtrip failed")
	}
}

func TestStatusString(t *testing.T) {
	if StatusUp.String() != "up" || StatusDown.String() != "down" {
		t.Fatal("status strings")
	}
}

func TestAccessors(t *testing.T) {
	g := buildTiny(t, nil)
	if g.Base() != 0 || g.Horizon() != 1<<20 || !g.Finalized() {
		t.Fatal("graph accessors")
	}
	n := g.ByPath("/cluster0/rack0/node0")
	if n.String() != "/cluster0/rack0/node0" {
		t.Fatalf("String = %q", n.String())
	}
	orphan := &Vertex{Name: "loose"}
	if orphan.String() != "loose" {
		t.Fatalf("orphan String = %q", orphan.String())
	}
	if len(n.OutEdges(Containment)) == 0 || len(n.InEdges(Containment)) == 0 {
		t.Fatal("edge accessors")
	}
}

func TestAttachErrors(t *testing.T) {
	g := buildTiny(t, nil)
	g2 := buildTiny(t, nil)
	foreign := g2.ByPath("/cluster0/rack0/node0")
	rack := g.ByPath("/cluster0/rack0")
	if err := g.Attach(rack, foreign); !errors.Is(err, ErrInvalid) {
		t.Fatalf("foreign: %v", err)
	}
	// Already-attached subtree.
	own := g.ByPath("/cluster0/rack0/node0")
	if err := g.Attach(rack, own); !errors.Is(err, ErrInvalid) {
		t.Fatalf("already attached: %v", err)
	}
	// Unfinalized graph refuses Attach.
	g3 := NewGraph(0, 100)
	a := g3.MustAddVertex("a", -1, 1)
	b := g3.MustAddVertex("b", -1, 1)
	if err := g3.Attach(a, b); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("unfinalized: %v", err)
	}
	// Detached parent refuses Attach.
	node := g.ByPath("/cluster0/rack1/node2")
	if err := g.Detach(node); err != nil {
		t.Fatal(err)
	}
	fresh := g.MustAddVertex("node", -1, 1)
	if err := g.Attach(node, fresh); !errors.Is(err, ErrInvalid) {
		t.Fatalf("detached parent: %v", err)
	}
}

// filterMember returns the member planner of v's pruning filter for type
// rt, or nil when v has no filter or the filter does not track rt.
func filterMember(v *Vertex, rt string) *planner.Planner {
	id, ok := v.graph.types.Lookup(rt)
	if !ok || v.filter == nil {
		return nil
	}
	return v.filter.PlannerByID(id)
}

// filterTotal returns the pool size of rt in v's filter, or 0 when the
// filter does not track rt.
func filterTotal(v *Vertex, rt string) int64 {
	if p := filterMember(v, rt); p != nil {
		return p.Total()
	}
	return 0
}

// filterAvail returns the amount of rt available in v's filter at t=0 for
// one second, or -1 when the filter does not track rt.
func filterAvail(t *testing.T, v *Vertex, rt string) int64 {
	t.Helper()
	if v.Filter() == nil {
		t.Fatalf("%s has no filter", v.Name)
	}
	p := filterMember(v, rt)
	if p == nil {
		return -1
	}
	avail, err := p.AvailDuring(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return avail
}

func TestMarkDownPropagatesToAncestorFilters(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core", "node"}})
	root := g.Root(Containment)
	rack := g.ByPath("/cluster0/rack0")
	node := g.ByPath("/cluster0/rack0/node0")

	if got := filterAvail(t, root, "core"); got != 16 {
		t.Fatalf("root cores = %d", got)
	}
	delta, err := g.MarkDown(node)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"node": 1, "core": 4, "memory": 16}
	if !reflect.DeepEqual(delta, want) {
		t.Fatalf("delta = %v", delta)
	}
	// The whole subtree is down.
	if node.Status != StatusDown || g.ByPath("/cluster0/rack0/node0/core2").Status != StatusDown {
		t.Fatal("subtree not down")
	}
	// Ancestor filters exclude the downed subtree; sibling rack intact.
	if got := filterAvail(t, root, "core"); got != 12 {
		t.Fatalf("root cores after down = %d", got)
	}
	if got := filterAvail(t, root, "node"); got != 3 {
		t.Fatalf("root nodes after down = %d", got)
	}
	if got := filterAvail(t, rack, "core"); got != 4 {
		t.Fatalf("rack cores after down = %d", got)
	}
	if got := filterAvail(t, g.ByPath("/cluster0/rack1"), "core"); got != 8 {
		t.Fatalf("sibling rack cores = %d", got)
	}

	// MarkDown is idempotent.
	delta2, err := g.MarkDown(node)
	if err != nil || len(delta2) != 0 {
		t.Fatalf("second MarkDown: %v, %v", delta2, err)
	}
	if got := filterAvail(t, root, "core"); got != 12 {
		t.Fatalf("root cores after repeat = %d", got)
	}

	// MarkUp restores everything.
	up, err := g.MarkUp(node)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(up, want) {
		t.Fatalf("up delta = %v", up)
	}
	if got := filterAvail(t, root, "core"); got != 16 {
		t.Fatalf("root cores after up = %d", got)
	}
	if node.Status != StatusUp || g.ByPath("/cluster0/rack0/node0/core3").Status != StatusUp {
		t.Fatal("subtree not restored")
	}
}

func TestMarkDownNestedDomainsNeverDoubleCount(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core", "node"}})
	root := g.Root(Containment)
	node := g.ByPath("/cluster0/rack0/node0")
	rack := g.ByPath("/cluster0/rack0")

	if _, err := g.MarkDown(node); err != nil {
		t.Fatal(err)
	}
	// Downing the rack counts only the still-up remainder.
	delta, err := g.MarkDown(rack)
	if err != nil {
		t.Fatal(err)
	}
	if delta["core"] != 4 || delta["node"] != 1 || delta["rack"] != 1 {
		t.Fatalf("rack delta = %v", delta)
	}
	if got := filterAvail(t, root, "core"); got != 8 {
		t.Fatalf("root cores = %d", got)
	}
	// Repairing the rack repairs the nested node too.
	up, err := g.MarkUp(rack)
	if err != nil {
		t.Fatal(err)
	}
	if up["core"] != 8 || up["node"] != 2 {
		t.Fatalf("up delta = %v", up)
	}
	if got := filterAvail(t, root, "core"); got != 16 {
		t.Fatalf("root cores restored = %d", got)
	}
	if node.Status != StatusUp {
		t.Fatal("nested node still down")
	}
}

func TestMarkDownErrors(t *testing.T) {
	g := NewGraph(0, 100)
	a := g.MustAddVertex("a", -1, 1)
	if _, err := g.MarkDown(a); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("unfinalized: %v", err)
	}
	fin := buildTiny(t, nil)
	if _, err := fin.MarkDown(nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil vertex: %v", err)
	}
	if _, err := fin.MarkDown(a); !errors.Is(err, ErrInvalid) {
		t.Fatalf("foreign vertex: %v", err)
	}
}

func TestFinalizeExcludesLoadedDownVertices(t *testing.T) {
	// A graph whose vertices arrive already down (the JGF/GraphML load
	// path) must finalize with filters that exclude them.
	g := NewGraph(0, 1<<20)
	if err := g.SetPruneSpec(PruneSpec{ALL: {"core"}}); err != nil {
		t.Fatal(err)
	}
	cluster := g.MustAddVertex("cluster", -1, 1)
	for n := 0; n < 2; n++ {
		node := g.MustAddVertex("node", -1, 1)
		if err := g.AddContainment(cluster, node); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 4; c++ {
			core := g.MustAddVertex("core", -1, 1)
			if n == 1 {
				core.Status = StatusDown
			}
			if err := g.AddContainment(node, core); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.ByType("node")[1].Status = StatusDown // node1 itself
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := filterAvail(t, g.Root(Containment), "core"); got != 4 {
		t.Fatalf("root cores = %d", got)
	}
}

// TestNestedMarkDownThenSubtreeMarkUpRestoresInteriorFilters pins the
// composition bug where MarkDown(node) followed by MarkUp(rack) leaked
// capacity from the rack's own filter: per-vertex propagation must leave
// every filter — interior ones included — exactly as before the failures.
func TestNestedMarkDownThenSubtreeMarkUpRestoresInteriorFilters(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core", "node"}})
	root := g.Root(Containment)
	rack := g.ByPath("/cluster0/rack0")
	node := g.ByPath("/cluster0/rack0/node0")

	before := func(v *Vertex) [2]int64 {
		return [2]int64{filterAvail(t, v, "core"), filterAvail(t, v, "node")}
	}
	wantRoot, wantRack, wantNode := before(root), before(rack), before(node)

	// Inner domain fails first, then the whole rack, then the rack is
	// repaired wholesale (covering the node downed separately).
	if _, err := g.MarkDown(node); err != nil {
		t.Fatal(err)
	}
	// The rack's own filter excludes the downed node's capacity.
	if got := filterAvail(t, rack, "core"); got != wantRack[0]-4 {
		t.Fatalf("rack cores after node down = %d, want %d", got, wantRack[0]-4)
	}
	if _, err := g.MarkDown(rack); err != nil {
		t.Fatal(err)
	}
	if _, err := g.MarkUp(rack); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v    *Vertex
		want [2]int64
	}{{root, wantRoot}, {rack, wantRack}, {node, wantNode}} {
		if got := before(tc.v); got != tc.want {
			t.Errorf("%s filter = %v, want %v after full repair", tc.v.Name, got, tc.want)
		}
	}
}
