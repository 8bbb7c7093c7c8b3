package grug

import (
	"errors"
	"testing"

	"fluxion/internal/resgraph"
)

func TestBuildSmall(t *testing.T) {
	g, err := BuildGraph(Small(2, 3, 4, 16, 0), 0, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	root := g.Root(resgraph.Containment)
	agg := root.Aggregates()
	if agg["rack"] != 2 || agg["node"] != 6 || agg["core"] != 24 || agg["memory"] != 96 {
		t.Fatalf("aggregates = %v", agg)
	}
	// 1 cluster + 2 racks + 6 nodes + 24 cores + 6 memory = 39.
	if g.Len() != 39 {
		t.Fatalf("Len = %d", g.Len())
	}
	if v := g.ByPath("/cluster0/rack1/node4/core17"); v == nil {
		t.Fatal("deep path missing")
	}
}

func TestLODPresetsEquivalentCapacity(t *testing.T) {
	// All four LODs describe the same 1008-node system: 40320 cores,
	// 4032 GPUs, 258048 GB memory, 1612800 GB burst buffer.
	want := map[string]int64{
		"node": 1008, "core": 40320, "gpu": 4032,
		"memory": 258048, "bb": 1612800,
	}
	for _, r := range LODPresets() {
		g, err := BuildGraph(r, 0, 1<<20, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		agg := g.Root(resgraph.Containment).Aggregates()
		for typ, n := range want {
			if agg[typ] != n {
				t.Errorf("%s: agg[%s] = %d, want %d", r.Name, typ, agg[typ], n)
			}
		}
	}
}

func TestLODVertexCounts(t *testing.T) {
	// High: 1 + 56 + 1008 + 2016 sockets + 2016*(20+2+8+8) = 79689.
	// Med: 1 + 56 + 1008 + 1008*(40+4+8+8) = 61545.
	// Low: 1 + 1008 + 1008*(8+4+4+4) = 21169.
	// Low2: Low + 56 racks = 21225.
	want := map[string]int64{
		"medium-1008-high": 79689,
		"medium-1008-med":  61545,
		"medium-1008-low":  21169,
		"medium-1008-low2": 21225,
	}
	for _, r := range LODPresets() {
		if got := r.TotalVertices(); got != want[r.Name] {
			t.Errorf("%s: TotalVertices = %d, want %d", r.Name, got, want[r.Name])
		}
		g, err := BuildGraph(r, 0, 1<<20, nil)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if int64(g.Len()) != want[r.Name] {
			t.Errorf("%s: built %d vertices, want %d", r.Name, g.Len(), want[r.Name])
		}
	}
}

func TestQuartzPaper(t *testing.T) {
	r := QuartzPaper()
	g, err := BuildGraph(r, 0, 1<<20, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	if err != nil {
		t.Fatal(err)
	}
	agg := g.Root(resgraph.Containment).Aggregates()
	if agg["node"] != 2418 || agg["core"] != 87048 || agg["rack"] != 39 {
		t.Fatalf("aggregates = %v", agg)
	}
	nodeID, _ := g.Types().Lookup("node")
	if g.Root(resgraph.Containment).Filter().PlannerByID(nodeID).Total() != 2418 {
		t.Fatal("root node filter total")
	}
}

func TestDisaggregated(t *testing.T) {
	g, err := BuildGraph(Disaggregated(2, 1, 1, 1), 0, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := g.Root(resgraph.Containment).Aggregates()
	if agg["core"] != 2*16*32 || agg["gpu"] != 64 || agg["memory"] != 64*128 || agg["bb"] != 32*1024 {
		t.Fatalf("aggregates = %v", agg)
	}
}

func TestRecipeYAMLRoundTrip(t *testing.T) {
	orig := MedLOD()
	back, err := ParseYAML(orig.YAML())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, orig.YAML())
	}
	if back.Name != orig.Name {
		t.Fatalf("name = %q", back.Name)
	}
	if back.TotalVertices() != orig.TotalVertices() {
		t.Fatalf("vertices: %d vs %d", back.TotalVertices(), orig.TotalVertices())
	}
	// Build both and compare aggregates.
	g1, err := BuildGraph(orig, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGraph(back, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	a1 := g1.Root(resgraph.Containment).Aggregates()
	a2 := g2.Root(resgraph.Containment).Aggregates()
	for typ, n := range a1 {
		if a2[typ] != n {
			t.Errorf("agg[%s]: %d vs %d", typ, a2[typ], n)
		}
	}
}

func TestParseYAMLWithProperties(t *testing.T) {
	src := `
name: tagged
root:
  type: cluster
  with:
    - type: node
      count: 2
      properties:
        perfclass: 3
        vendor: amd
      with:
        - {type: core, count: 4}
`
	r, err := ParseYAML([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(r, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.ByType("node")
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	for _, n := range nodes {
		if n.Property("perfclass") != "3" || n.Property("vendor") != "amd" {
			t.Fatalf("properties = %v", n.Properties)
		}
	}
}

func TestRecipeValidation(t *testing.T) {
	cases := []struct {
		name string
		r    *Recipe
	}{
		{"nil root", &Recipe{}},
		{"root count", &Recipe{Root: N("cluster", 2)}},
		{"zero count child", &Recipe{Root: N("cluster", 1, N("node", 0))}},
		{"empty type", &Recipe{Root: N("cluster", 1, N("", 1))}},
		{"bad size", &Recipe{Root: N("cluster", 1, &Node{Type: "x", Count: 1, Size: -1})}},
	}
	for _, c := range cases {
		if err := c.r.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if _, err := ParseYAML([]byte("name: x")); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing root: %v", err)
	}
	if _, err := ParseYAML([]byte("root:\n  count: 1")); !errors.Is(err, ErrInvalid) {
		t.Errorf("missing type: %v", err)
	}
}

func TestBuildIntoExistingGraph(t *testing.T) {
	g := resgraph.NewGraph(0, 100)
	root, err := Build(g, Small(1, 2, 2, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if root.Type != "cluster" {
		t.Fatalf("root = %v", root)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 10 { // cluster + rack + 2 nodes + 4 cores... 1+1+2+4 = 8? plus nothing else
		// cluster(1) + rack(1) + node(2) + core(4) = 8
		if g.Len() != 8 {
			t.Fatalf("Len = %d", g.Len())
		}
	}
	// Invalid recipe refuses to build.
	if _, err := Build(g, &Recipe{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil root: %v", err)
	}
	// TotalVertices of empty recipe.
	if (&Recipe{}).TotalVertices() != 0 {
		t.Fatal("empty TotalVertices")
	}
}

func TestNodeDefaults(t *testing.T) {
	// Count 0 on a non-root node is invalid, but Size 0 defaults to 1
	// during build via the zero-size guard.
	n := &Node{Type: "x", Count: 1}
	r := &Recipe{Root: N("cluster", 1)}
	r.Root.With = []*Node{n}
	g := resgraph.NewGraph(0, 100)
	if _, err := Build(g, r); err != nil {
		t.Fatal(err)
	}
	if v := g.ByType("x"); len(v) != 1 || v[0].Size != 1 {
		t.Fatalf("x = %v", v)
	}
}
