package resgraph

import (
	"errors"
	"testing"
)

// collectPaths returns every containment path in published pre-order.
func collectPaths(g *Graph) []string {
	ts := g.topo.Load()
	out := make([]string, 0, len(ts.order))
	for _, v := range ts.order {
		out = append(out, v.Path())
	}
	return out
}

// TestPartitionSingleShardIsClone: n=1 must reproduce the flat graph
// vertex for vertex — same pre-order paths, IDs, sizes, and aggregates.
// This is the structural half of the sharded-vs-flat parity property.
func TestPartitionSingleShardIsClone(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core", "node"}})
	parts, err := g.Partition("rack", 1)
	if err != nil {
		t.Fatal(err)
	}
	ng := parts[0]
	want := collectPaths(g)
	got := collectPaths(ng)
	if len(want) != len(got) {
		t.Fatalf("clone has %d vertices, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pre-order path %d: %q vs %q", i, got[i], want[i])
		}
	}
	for _, p := range want {
		ov, nv := g.ByPath(p), ng.ByPath(p)
		if nv == nil {
			t.Fatalf("%s missing from clone", p)
		}
		if ov.Type != nv.Type || ov.ID != nv.ID || ov.Size != nv.Size || ov.Unit != nv.Unit {
			t.Fatalf("%s diverged: %+v vs %+v", p, ov, nv)
		}
	}
	oa := g.Root(Containment).Aggregates()
	na := ng.Root(Containment).Aggregates()
	for typ, n := range oa {
		if na[typ] != n {
			t.Fatalf("aggregate %s: %d vs %d", typ, na[typ], n)
		}
	}
}

// TestPartitionSplitsCapacity: across n shards every unit lands exactly
// once, shard capacities sum to the flat graph's per type, the skeleton
// is replicated, and shard sizes stay within one unit of each other.
func TestPartitionSplitsCapacity(t *testing.T) {
	g := buildTiny(t, PruneSpec{ALL: {"core", "node"}}) // 2 racks à 2 nodes
	parts, err := g.Partition("rack", 2)
	if err != nil {
		t.Fatal(err)
	}
	flat := g.Root(Containment).Aggregates()
	sum := map[string]int64{}
	for k, ng := range parts {
		root := ng.Root(Containment)
		if root == nil || root.Path() != "/cluster0" {
			t.Fatalf("shard %d root = %v", k, root)
		}
		for typ, n := range root.Aggregates() {
			sum[typ] += n
		}
		if got := root.Aggregates()["rack"]; got != 1 {
			t.Fatalf("shard %d holds %d racks, want 1", k, got)
		}
	}
	// The cluster root is skeleton (replicated, counted once per shard);
	// everything under the cut must sum exactly.
	for _, typ := range []string{"rack", "node", "core", "memory"} {
		if sum[typ] != flat[typ] {
			t.Fatalf("%s capacity: shards sum to %d, flat has %d", typ, sum[typ], flat[typ])
		}
	}
	// No vertex below the cut appears in two shards.
	seen := map[string]int{}
	for _, ng := range parts {
		for _, p := range collectPaths(ng) {
			seen[p]++
		}
	}
	for p, n := range seen {
		if p == "/cluster0" {
			if n != 2 {
				t.Fatalf("skeleton %s replicated %d times, want 2", p, n)
			}
			continue
		}
		if n != 1 {
			t.Fatalf("%s owned by %d shards", p, n)
		}
	}
}

// TestPartitionErrors covers the failure modes: unfinalized graphs, bad
// shard counts, unknown cut types, and more shards than units.
func TestPartitionErrors(t *testing.T) {
	g := buildTiny(t, nil)
	if _, err := g.Partition("rack", 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := g.Partition("blade", 1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown cut: %v", err)
	}
	if _, err := g.Partition("rack", 3); !errors.Is(err, ErrInvalid) {
		t.Fatalf("3 shards from 2 racks: %v", err)
	}
	raw := NewGraph(0, 100)
	raw.MustAddVertex("cluster", -1, 1)
	if _, err := raw.Partition("rack", 1); !errors.Is(err, ErrNotFinalized) {
		t.Fatalf("unfinalized: %v", err)
	}
}
