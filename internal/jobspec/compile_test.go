package jobspec

import (
	"errors"
	"reflect"
	"testing"

	"fluxion/internal/intern"
)

func TestCompileFlattening(t *testing.T) {
	tab := intern.NewTable()
	js := New(3600, R("node", 2, SlotR(3, R("core", 4), R("memory", 8))))
	c, err := Compile(js, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec() != js || c.Table() != tab {
		t.Fatal("Spec/Table accessors do not round-trip")
	}
	nodes := c.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("len(nodes) = %d, want 4", len(nodes))
	}
	if !reflect.DeepEqual(c.Roots(), []int32{0}) {
		t.Fatalf("roots = %v", c.Roots())
	}
	// Pre-order: node, slot, core, memory.
	wantTypes := []string{"node", Slot, "core", "memory"}
	wantCounts := []int64{2, 3, 4, 8}
	for i, n := range nodes {
		if n.Type != wantTypes[i] || n.Count != wantCounts[i] {
			t.Fatalf("node %d = %s[%d], want %s[%d]", i, n.Type, n.Count, wantTypes[i], wantCounts[i])
		}
		if n.TypeID != tab.ID(n.Type) {
			t.Fatalf("node %d TypeID %d != interned %d", i, n.TypeID, tab.ID(n.Type))
		}
		if n.Min != n.Count {
			t.Fatalf("rigid node %d has Min %d != Count %d", i, n.Min, n.Count)
		}
	}
	if !nodes[1].IsSlot || nodes[0].IsSlot {
		t.Fatal("IsSlot mis-flagged")
	}
	if !reflect.DeepEqual(nodes[0].With, []int32{1}) || !reflect.DeepEqual(nodes[1].With, []int32{2, 3}) {
		t.Fatalf("With links wrong: %v / %v", nodes[0].With, nodes[1].With)
	}
}

func TestCompileNeeds(t *testing.T) {
	tab := intern.NewTable()
	js := New(0, R("node", 2, SlotR(3, R("core", 4), R("memory", 8))))
	c, err := Compile(js, tab)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	// One node instance: itself + 3 slots × (4 cores + 8 memory).
	wantNode := []TypeCount{
		{Type: "core", ID: tab.ID("core"), Units: 12},
		{Type: "memory", ID: tab.ID("memory"), Units: 24},
		{Type: "node", ID: tab.ID("node"), Units: 1},
	}
	if !reflect.DeepEqual(nodes[0].Needs, wantNode) {
		t.Fatalf("node Needs = %v, want %v", nodes[0].Needs, wantNode)
	}
	// One slot instance: the contained shape, slot itself transparent.
	wantSlot := []TypeCount{
		{Type: "core", ID: tab.ID("core"), Units: 4},
		{Type: "memory", ID: tab.ID("memory"), Units: 8},
	}
	if !reflect.DeepEqual(nodes[1].Needs, wantSlot) {
		t.Fatalf("slot Needs = %v, want %v", nodes[1].Needs, wantSlot)
	}
	// A leaf needs one unit of its own type per instance.
	wantCore := []TypeCount{{Type: "core", ID: tab.ID("core"), Units: 1}}
	if !reflect.DeepEqual(nodes[2].Needs, wantCore) {
		t.Fatalf("core Needs = %v", nodes[2].Needs)
	}
}

func TestCompileMoldableNeedsUseMin(t *testing.T) {
	tab := intern.NewTable()
	js := New(0, SlotR(2, Moldable("core", 2, 8)))
	c, err := Compile(js, tab)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	if nodes[1].Min != 2 || nodes[1].Count != 8 {
		t.Fatalf("moldable core Min/Count = %d/%d", nodes[1].Min, nodes[1].Count)
	}
	// Needs bound at the floor a feasible grant must reach.
	want := []TypeCount{{Type: "core", ID: tab.ID("core"), Units: 2}}
	if !reflect.DeepEqual(nodes[0].Needs, want) {
		t.Fatalf("slot Needs = %v, want %v", nodes[0].Needs, want)
	}
}

func TestCompileTotalsMatchTotalCounts(t *testing.T) {
	tab := intern.NewTable()
	js := New(0, R("node", 2, SlotR(3, Moldable("core", 2, 4), R("memory", 8))))
	c, err := Compile(js, tab)
	if err != nil {
		t.Fatal(err)
	}
	want := js.TotalCounts()
	got := make(map[string]int64)
	prev := ""
	for _, tc := range c.Totals() {
		if tc.Type < prev {
			t.Fatalf("Totals not sorted: %q after %q", tc.Type, prev)
		}
		prev = tc.Type
		if tc.ID != tab.ID(tc.Type) {
			t.Fatalf("%s: ID %d != interned %d", tc.Type, tc.ID, tab.ID(tc.Type))
		}
		got[tc.Type] = tc.Units
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals = %v, want TotalCounts = %v", got, want)
	}
}

// TestCompileWholes pins the per-type count of vertices a match takes
// whole: exclusive or slot-held structural requests, multiplied by the
// Min counts above them.
func TestCompileWholes(t *testing.T) {
	moldable := Moldable("node", 2, 6, R("core", 1))
	moldable.Exclusive = true
	cases := []struct {
		name string
		js   *Jobspec
		want map[string]int64
	}{
		{"exclusive nodes", New(0, RX("node", 3, R("core", 2))), map[string]int64{"node": 3}},
		{"shared nodes", New(0, R("node", 3, R("core", 2))), nil},
		{"slots of nodes", New(0, SlotR(4, R("node", 1, R("core", 2)))), map[string]int64{"node": 4}},
		{"slot of cores", New(0, SlotR(4, R("core", 2))), nil},
		{"moldable uses Min", New(0, moldable), map[string]int64{"node": 2}},
		{"racks of nodes", New(0, R("rack", 2, RX("node", 3, R("core", 1)))), map[string]int64{"node": 6}},
		{"exclusive rack", New(0, RX("rack", 1, R("node", 2, R("core", 1)))), map[string]int64{"rack": 1, "node": 2}},
		{"two requests", New(0, RX("node", 1, R("core", 1)), SlotR(2, R("node", 1, R("core", 1)))), map[string]int64{"node": 3}},
		{"node under node", New(0, RX("node", 1, R("node", 1, R("core", 1)))), map[string]int64{"node": 1}},
		{"leaf node", New(0, RX("node", 2)), nil},
		{"node-local (shared nodes)", NodeLocal(2, 1, 4, 0, 0, 0), nil},
	}
	for _, tc := range cases {
		c, err := Compile(tc.js, intern.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]int64
		for _, w := range c.Wholes() {
			if got == nil {
				got = map[string]int64{}
			}
			got[w.Type] = w.Units
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: wholes %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	tab := intern.NewTable()
	if _, err := Compile(New(0, R("core", 1)), nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("nil table: err = %v, want ErrInvalid", err)
	}
	if _, err := Compile(New(0, R("core", 0)), tab); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid spec: err = %v, want ErrInvalid", err)
	}
	if _, err := Compile(New(0), tab); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty spec: err = %v, want ErrInvalid", err)
	}
}
