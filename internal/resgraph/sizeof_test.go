package resgraph

import (
	"testing"
	"unsafe"

	"fluxion/internal/planner"
)

// TestVertexPacking pins the slab element size: at a million vertices
// every 8 bytes of padding is 8 MB of resting memory, so the Vertex
// field order must stay optimally packed (4-byte fields grouped at the
// tail). govet's fieldalignment check guards the ordering in lint; this
// test guards the absolute size against field additions that look free
// but aren't.
func TestVertexPacking(t *testing.T) {
	if got, max := unsafe.Sizeof(Vertex{}), uintptr(192); got > max {
		t.Fatalf("sizeof(Vertex) = %d, budget %d — new fields must justify their slab cost", got, max)
	}
}

// TestPlannerSizeof pins the planner slab element the same way: every
// vertex carries one and every filter one per tracked type, so the span
// index's slice header had to be paid for by dropping the stored type
// label, not by growing the struct. The budget is what a single (SP) tree
// costs with no lock (planners are single-writer); the per-point element
// is pinned by the planner package's TestSchedPointSizeof.
func TestPlannerSizeof(t *testing.T) {
	if got, max := unsafe.Sizeof(planner.Planner{}), uintptr(96); got > max {
		t.Fatalf("sizeof(planner.Planner) = %d, budget %d", got, max)
	}
}
