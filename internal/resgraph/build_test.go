package resgraph_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/resgraph"
)

// buildRef is the brute-force reference a built graph is checked
// against: every attached vertex in pre-order, with its subtree's unit
// totals per type summed vertex by vertex.
type buildRef struct {
	order []*resgraph.Vertex
	sums  map[*resgraph.Vertex]map[string]int64
}

func newBuildRef(g *resgraph.Graph) *buildRef {
	r := &buildRef{sums: make(map[*resgraph.Vertex]map[string]int64)}
	var walk func(v *resgraph.Vertex)
	walk = func(v *resgraph.Vertex) {
		r.order = append(r.order, v)
		for _, k := range v.Kids(resgraph.Containment) {
			walk(k)
		}
	}
	walk(g.Root(resgraph.Containment))
	for _, v := range r.order {
		for a := v; a != nil; a = a.Parent() {
			if r.sums[a] == nil {
				r.sums[a] = make(map[string]int64)
			}
			r.sums[a][v.Type] += v.Size
		}
	}
	return r
}

// paths returns the reference path index: the later of two vertices
// sharing a path wins, as in pre-order.
func (r *buildRef) paths() map[string]*resgraph.Vertex {
	m := make(map[string]*resgraph.Vertex, len(r.order))
	for _, v := range r.order {
		m[v.Path()] = v
	}
	return m
}

// nonZero returns m without its zero entries.
func nonZero[K comparable](m map[K]int64) map[K]int64 {
	out := maps.Clone(m)
	maps.DeleteFunc(out, func(_ K, n int64) bool { return n == 0 })
	return out
}

// checkBuild compares every attached vertex of g (all up) with the
// reference: name, path, ByPath, aggregates by name and by ID, and the
// units its pruning filter tracks.
func checkBuild(t *testing.T, g *resgraph.Graph, spec resgraph.PruneSpec) *buildRef {
	t.Helper()
	r := newBuildRef(g)
	if len(r.order) != g.Len() {
		t.Fatalf("%d vertices reachable, Len %d", len(r.order), g.Len())
	}
	types := g.Types()
	for _, v := range r.order {
		if want := fmt.Sprintf("%s%d", v.Type, v.ID); v.Name != want {
			t.Fatalf("name %q, want %q", v.Name, want)
		}
		parent := ""
		if p := v.Parent(); p != nil {
			parent = p.Path()
		}
		if want := parent + "/" + v.Name; v.Path() != want {
			t.Fatalf("path %q, want %q", v.Path(), want)
		}
		if got := g.ByPath(v.Path()); got != v {
			t.Fatalf("ByPath(%q) = %v", v.Path(), got)
		}
		if got := v.Aggregates(); !reflect.DeepEqual(got, r.sums[v]) {
			t.Fatalf("%s: Aggregates %v, want %v", v.Path(), got, r.sums[v])
		}
		for id := int32(-1); id <= int32(types.Len()); id++ {
			if got, want := v.AggregateOf(id), r.sums[v][types.Name(id)]; got != want {
				t.Fatalf("%s: AggregateOf(%d=%q) = %d, want %d", v.Path(), id, types.Name(id), got, want)
			}
		}
		want := make(map[int32]int64)
		if v.HasChildren(resgraph.Containment) {
			for _, key := range []string{v.Type, resgraph.ALL} {
				for _, lo := range spec[key] {
					if lo != v.Type && r.sums[v][lo] > 0 {
						want[types.ID(lo)] = r.sums[v][lo]
					}
				}
			}
		}
		got := make(map[int32]int64)
		if f := v.Filter(); f != nil {
			for _, id := range f.IDs() {
				got[id] = f.PlannerByID(id).Total()
			}
		}
		if got = nonZero(got); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: filter tracks %v, want %v", v.Path(), got, want)
		}
	}
	return r
}

// randomRecipeNode draws a recipe subtree of at most depth levels from a
// small type pool; types may repeat at several levels.
func randomRecipeNode(rng *rand.Rand, depth int) *grug.Node {
	pool := []string{"rack", "node", "core", "gpu", "memory"}
	n := grug.NP(pool[rng.Intn(len(pool))], 1+rng.Int63n(3), 1+rng.Int63n(4), "")
	if depth > 1 {
		for k := rng.Intn(3); k > 0; k-- {
			n.With = append(n.With, randomRecipeNode(rng, depth-1))
		}
	}
	return n
}

// buildSpecs are the prune specs the parity test builds with, one listing
// a type twice (under its vertex type and under ALL).
var buildSpecs = []resgraph.PruneSpec{
	nil,
	{resgraph.ALL: {"core"}},
	{resgraph.ALL: {"core", "node"}},
	{"node": {"core", "gpu"}, "rack": {"node"}, resgraph.ALL: {"memory", "fpga"}},
	{"node": {"core"}, resgraph.ALL: {"core", "gpu"}},
}

// TestGraphBuildMatchesReference builds every grug preset (scaled down)
// and random recipes under several prune specs, then grafts a subtree
// bringing a type interned after Finalize, detaches subtrees and grafts
// again, checking every vertex against a brute-force reference after
// each step.
func TestGraphBuildMatchesReference(t *testing.T) {
	recipes := append(grug.LODPresetsScaled(1), grug.Quartz(2, 3, 4),
		grug.Small(2, 3, 4, 16, 8), grug.Disaggregated(1, 1, 1, 1))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		recipes = append(recipes, &grug.Recipe{
			Name: fmt.Sprintf("random%d", i),
			Root: grug.N("cluster", 1, randomRecipeNode(rng, 4)),
		})
	}
	for _, recipe := range recipes {
		for si, spec := range buildSpecs {
			t.Run(fmt.Sprintf("%s/spec%d", recipe.Name, si), func(t *testing.T) {
				g, err := grug.BuildGraph(recipe, 0, 1<<20, spec)
				if err != nil {
					t.Fatal(err)
				}
				ref := checkBuild(t, g, spec)
				root := g.Root(resgraph.Containment)

				// Types interned after Finalize read 0 until a graft
				// holding them is attached.
				lic := g.Types().ID("licence")
				fpga := g.Types().ID("fpga")
				if root.AggregateOf(lic) != 0 || root.AggregateOf(fpga) != 0 {
					t.Fatal("a type interned after Finalize has units")
				}
				sub, err := grug.Build(g, &grug.Recipe{Root: grug.N("node", 1,
					grug.N("fpga", 2), grug.NP("core", 3, 2, ""))})
				if err != nil {
					t.Fatal(err)
				}
				parent := ref.order[rng.Intn(len(ref.order))] // may be a leaf
				if err := g.Attach(parent, sub); err != nil {
					t.Fatal(err)
				}
				if got := root.AggregateOf(fpga); got != 2 {
					t.Fatalf("root holds %d fpga after the graft", got)
				}
				ref = checkBuild(t, g, spec)

				// Detach a random subtree (not the root), then graft into
				// the rows it freed.
				victim := ref.order[1+rng.Intn(len(ref.order)-1)]
				gone := map[*resgraph.Vertex]string{}
				for _, v := range ref.order {
					if v.InSubtreeOf(victim) {
						gone[v] = v.Path()
					}
				}
				if err := g.Detach(victim); err != nil {
					t.Fatal(err)
				}
				for v, path := range gone {
					if v.Path() != "" || g.ByPath(path) != nil {
						t.Fatalf("%s still resolves after Detach", path)
					}
					// A detached vertex keeps no aggregate row: it
					// reports only itself, interior or not.
					if got, want := v.Aggregates(), map[string]int64{v.Type: v.Size}; !maps.Equal(got, want) {
						t.Fatalf("detached %s aggregates %v, want %v", path, got, want)
					}
					for id := int32(0); id < int32(g.Types().Len()); id++ {
						if got := v.AggregateOf(id); id != v.TypeID && got != 0 {
							t.Fatalf("detached %s holds %d %s", path, got, g.Types().Name(id))
						}
					}
				}
				// Nor can it come back: it belongs to no graph.
				if err := g.Attach(root, victim); !errors.Is(err, resgraph.ErrInvalid) {
					t.Fatalf("re-attaching a detached subtree: %v", err)
				}
				ref = checkBuild(t, g, spec)
				for k := 0; k < 2; k++ {
					sub, err := grug.Build(g, &grug.Recipe{Root: grug.N("rack", 1, grug.N("node", 2, grug.N("core", 2)))})
					if err != nil {
						t.Fatal(err)
					}
					if err := g.Attach(ref.order[rng.Intn(len(ref.order))], sub); err != nil {
						t.Fatal(err)
					}
					ref = checkBuild(t, g, spec)
				}
			})
		}
	}
}

// byPathGraph builds a graph whose names and paths are near misses of
// each other: rack1 beside rack10, names containing "/", and a name
// whose path equals another vertex's path. One subtree is detached.
func byPathGraph(tb testing.TB) *resgraph.Graph {
	g := resgraph.NewGraph(0, 1<<20)
	add := func(parent *resgraph.Vertex, typ string, id int64) *resgraph.Vertex {
		v := g.MustAddVertex(typ, id, 1)
		if parent != nil {
			if err := g.AddContainment(parent, v); err != nil {
				tb.Fatal(err)
			}
		}
		return v
	}
	c := add(nil, "c", 0)
	r1 := add(c, "rack", 1)
	r10 := add(c, "rack", 10)
	add(r1, "node", 0)
	add(r10, "node", 1)
	add(add(r10, "node", 10), "core", 0)
	x := add(c, "x", 0)
	add(x, "y", 0)    // /c0/x0/y0
	add(c, "x0/y", 0) // /c0/x0/y0 again: the later one wins
	add(c, "a/", 1)   // /c0/a/1
	add(c, "a", 1)    // /c0/a1
	gone := add(c, "gone", 0)
	add(gone, "core", 1)
	if err := g.Finalize(); err != nil {
		tb.Fatal(err)
	}
	if err := g.Detach(gone); err != nil {
		tb.Fatal(err)
	}
	return g
}

// FuzzByPath feeds malformed and near-miss paths to ByPath; the answer
// must equal a reference path index built from the attached vertices.
func FuzzByPath(f *testing.F) {
	g := byPathGraph(f)
	ref := newBuildRef(g).paths()
	for _, s := range []string{"", "/", "//", "/c0/", "/c0//rack1", "c0/rack1",
		"/c0/rack1", "/c0/rack10", "/c0/rack1/", "/c0/rack1/node1", "/c0/rack10/node10/core0",
		"/c0/x0/y0", "/c0/x0/y0/", "/c0/a/1", "/c0/a1", "/c0/a", "/c0/gone0", "/c0/gone0/core1",
		"/c0/unknown", "/c1", "/c0/rack10/node1x"} {
		f.Add(s)
	}
	for path := range ref {
		f.Add(path)
		f.Add(path + "/")
		f.Add(path[:len(path)-1])
	}
	f.Fuzz(func(t *testing.T, path string) {
		if got, want := g.ByPath(path), ref[path]; got != want {
			t.Fatalf("ByPath(%q) = %v, want %v", path, got, want)
		}
	})
}

// TestByPathNearMisses pins the answers FuzzByPath's reference gives on
// the tricky graph, so the reference itself is checked.
func TestByPathNearMisses(t *testing.T) {
	g := byPathGraph(t)
	for path, want := range map[string]string{
		"/c0/rack1":               "rack1",
		"/c0/rack10/node10/core0": "core0",
		"/c0/rack1/node1":         "",
		"/c0/x0/y0":               "x0/y0",
		"/c0/a/1":                 "a/1",
		"/c0/a1":                  "a1",
		"/c0/gone0":               "",
		"/c0/rack1/":              "",
		"//":                      "",
	} {
		got := g.ByPath(path)
		if (got == nil) != (want == "") || got != nil && got.Name != want {
			t.Fatalf("ByPath(%q) = %v, want %q", path, got, want)
		}
	}
}

// TestBuildAllocsPerBlock pins that graph construction allocates per
// block, not per vertex: doubling a graph's leaves (Quartz(1,2,36) to
// Quartz(1,2,72)) adds at most a few allocations — another string or
// vertex-list block — not one per leaf.
func TestBuildAllocsPerBlock(t *testing.T) {
	build := func(cores int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := grug.BuildGraph(grug.Quartz(1, 2, cores), 0, 1<<20,
				resgraph.PruneSpec{resgraph.ALL: {"core", "node"}}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := build(36), build(72)
	t.Logf("Quartz(1,2,36): %.0f allocs, Quartz(1,2,72): %.0f", small, large)
	if large-small > 3 {
		t.Fatalf("72 more leaves cost %.0f more allocations", large-small)
	}
}
