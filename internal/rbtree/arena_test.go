package rbtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

// checkArenaInvariants validates the red-black properties, BST order, and
// parent links of an arena tree.
func checkArenaInvariants(t *testing.T, tr *Arena[int]) {
	t.Helper()
	var walk func(n int32) int
	walk = func(n int32) int {
		if n == None {
			return 1
		}
		nd := tr.nodes[n]
		if nd.red {
			if l := nd.left; l != None && tr.nodes[l].red {
				t.Fatalf("red node %d has red left child %d", nd.item, tr.nodes[l].item)
			}
			if r := nd.right; r != None && tr.nodes[r].red {
				t.Fatalf("red node %d has red right child %d", nd.item, tr.nodes[r].item)
			}
		}
		if l := nd.left; l != None {
			if tr.nodes[l].parent != n {
				t.Fatalf("left child %d has wrong parent", tr.nodes[l].item)
			}
			if nd.item < tr.nodes[l].item {
				t.Fatalf("BST violation: parent %d < left child %d", nd.item, tr.nodes[l].item)
			}
		}
		if r := nd.right; r != None {
			if tr.nodes[r].parent != n {
				t.Fatalf("right child %d has wrong parent", tr.nodes[r].item)
			}
			if tr.nodes[r].item < nd.item {
				t.Fatalf("BST violation: right child %d < parent %d", tr.nodes[r].item, nd.item)
			}
		}
		lh := walk(nd.left)
		rh := walk(nd.right)
		if lh != rh {
			t.Fatalf("black-height mismatch at %d: %d vs %d", nd.item, lh, rh)
		}
		if nd.red {
			return lh
		}
		return lh + 1
	}
	if root := tr.Root(); root != None && tr.nodes[root].red {
		t.Fatal("root is red")
	}
	walk(tr.Root())
	if s := tr.nodes[0]; s.left != None || s.right != None || s.parent != None || s.red {
		t.Fatalf("sentinel corrupted: %+v", s)
	}
}

func collectArena(tr *Arena[int]) []int {
	var out []int
	tr.Ascend(func(v int) bool { out = append(out, v); return true })
	return out
}

func TestArenaEmpty(t *testing.T) {
	tr := NewArena[int](intLess)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Min() != None || tr.Max() != None || tr.Root() != None {
		t.Fatal("empty arena should have None Min/Max/Root")
	}
	if tr.Search(1) != None || tr.Floor(1) != None || tr.Ceil(1) != None {
		t.Fatal("empty arena should have None Search/Floor/Ceil")
	}
	tr.Delete(None) // must not panic
}

func TestArenaInsertAscendingDescending(t *testing.T) {
	for _, desc := range []bool{false, true} {
		tr := NewArena[int](intLess)
		for i := 0; i < 1000; i++ {
			v := i
			if desc {
				v = 999 - i
			}
			tr.Insert(v)
			if i%97 == 0 {
				checkArenaInvariants(t, tr)
			}
		}
		checkArenaInvariants(t, tr)
		got := collectArena(tr)
		if len(got) != 1000 {
			t.Fatalf("len = %d", len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("got[%d] = %d", i, v)
			}
		}
	}
}

func TestArenaDuplicates(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 10; i++ {
		tr.Insert(7)
	}
	checkArenaInvariants(t, tr)
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 10; i++ {
		n := tr.Search(7)
		if n == None {
			t.Fatalf("Search(7) = None with %d left", 10-i)
		}
		tr.Delete(n)
		checkArenaInvariants(t, tr)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
}

func TestArenaFloorCeilFloorFunc(t *testing.T) {
	tr := NewArena[int](intLess)
	for _, v := range []int{10, 20, 30, 40, 50} {
		tr.Insert(v)
	}
	cases := []struct {
		q           int
		floor, ceil int
		floorNone   bool
		ceilNone    bool
	}{
		{5, 0, 10, true, false},
		{10, 10, 10, false, false},
		{15, 10, 20, false, false},
		{35, 30, 40, false, false},
		{50, 50, 50, false, false},
		{55, 50, 0, false, true},
	}
	for _, c := range cases {
		f := tr.Floor(c.q)
		if c.floorNone != (f == None) || (f != None && tr.Item(f) != c.floor) {
			t.Errorf("Floor(%d) = %v, want %d (none=%v)", c.q, f, c.floor, c.floorNone)
		}
		ff := tr.FloorFunc(func(x int) bool { return x > c.q })
		if ff != f {
			t.Errorf("FloorFunc(%d) = %v, Floor = %v", c.q, ff, f)
		}
		g := tr.Ceil(c.q)
		if c.ceilNone != (g == None) || (g != None && tr.Item(g) != c.ceil) {
			t.Errorf("Ceil(%d) = %v, want %d (none=%v)", c.q, g, c.ceil, c.ceilNone)
		}
	}
}

func TestArenaNextPrev(t *testing.T) {
	tr := NewArena[int](intLess)
	rng := rand.New(rand.NewSource(42))
	for _, v := range rng.Perm(500) {
		tr.Insert(v)
	}
	i := 0
	for n := tr.Min(); n != None; n = tr.Next(n) {
		if tr.Item(n) != i {
			t.Fatalf("Next order broken at %d: got %d", i, tr.Item(n))
		}
		i++
	}
	if i != 500 {
		t.Fatalf("iterated %d", i)
	}
	i = 499
	for n := tr.Max(); n != None; n = tr.Prev(n) {
		if tr.Item(n) != i {
			t.Fatalf("Prev order broken at %d: got %d", i, tr.Item(n))
		}
		i--
	}
}

// TestArenaRandomOpsAgainstReference drives the arena with random inserts
// and deletes and compares against a sorted-slice reference.
func TestArenaRandomOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewArena[int](intLess)
	var ref []int
	for op := 0; op < 20000; op++ {
		if len(ref) == 0 || rng.Intn(100) < 55 {
			v := rng.Intn(2000)
			tr.Insert(v)
			ref = append(ref, v)
			sort.Ints(ref)
		} else {
			i := rng.Intn(len(ref))
			v := ref[i]
			n := tr.Search(v)
			if n == None {
				t.Fatalf("op %d: Search(%d) = None but reference has it", op, v)
			}
			tr.Delete(n)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tr.Len(), len(ref))
		}
		if op%500 == 0 {
			checkArenaInvariants(t, tr)
			got := collectArena(tr)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("op %d: content mismatch at %d: arena %d, ref %d", op, i, got[i], ref[i])
				}
			}
		}
	}
	checkArenaInvariants(t, tr)
}

// TestArenaFreelistReuse checks that deleted slots are recycled rather than
// growing the slab without bound.
func TestArenaFreelistReuse(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 64; i++ {
		tr.Insert(i)
	}
	grown := tr.Cap()
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 10000; op++ {
		n := tr.Insert(rng.Intn(1000))
		tr.Delete(n)
	}
	if tr.Cap() > grown {
		t.Fatalf("slab grew during churn: %d -> %d nodes", grown, tr.Cap())
	}
	checkArenaInvariants(t, tr)
}

func TestArenaReset(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 100; i++ {
		tr.Insert(i)
	}
	c := tr.Cap()
	tr.Reset()
	if tr.Len() != 0 || tr.Root() != None || tr.Min() != None {
		t.Fatal("Reset did not empty the tree")
	}
	if tr.Cap() != c {
		t.Fatalf("Reset dropped capacity: %d -> %d", c, tr.Cap())
	}
	for i := 0; i < 100; i++ {
		tr.Insert(99 - i)
	}
	checkArenaInvariants(t, tr)
	if got := collectArena(tr); len(got) != 100 || got[0] != 0 || got[99] != 99 {
		t.Fatalf("reuse after Reset broken: len=%d", len(got))
	}
}

// TestArenaAugmentation maintains a subtree-minimum aggregate in a side
// slab keyed by the item, the exact shape the planner's earliest-time tree
// uses (items are indices into a point slab; aggregates live in the slab).
func TestArenaAugmentation(t *testing.T) {
	type point struct {
		val, subtreeMin int64
		key             int
	}
	var pts []point
	tr := NewArena[int32](func(a, b int32) bool { return pts[a].key < pts[b].key })
	tr.SetUpdate(func(n int32) {
		i := tr.Item(n)
		m := pts[i].val
		if l := tr.Left(n); l != None {
			if lm := pts[tr.Item(l)].subtreeMin; lm < m {
				m = lm
			}
		}
		if r := tr.Right(n); r != None {
			if rm := pts[tr.Item(r)].subtreeMin; rm < m {
				m = rm
			}
		}
		pts[i].subtreeMin = m
	})

	verify := func() {
		var walk func(n int32) int64
		walk = func(n int32) int64 {
			if n == None {
				return int64(1) << 62
			}
			i := tr.Item(n)
			m := pts[i].val
			if lm := walk(tr.Left(n)); lm < m {
				m = lm
			}
			if rm := walk(tr.Right(n)); rm < m {
				m = rm
			}
			if pts[i].subtreeMin != m {
				t.Fatalf("aggregate stale at key %d: have %d want %d", pts[i].key, pts[i].subtreeMin, m)
			}
			return m
		}
		walk(tr.Root())
	}

	rng := rand.New(rand.NewSource(11))
	var live []int32
	for op := 0; op < 8000; op++ {
		if len(live) == 0 || rng.Intn(100) < 60 {
			pts = append(pts, point{key: rng.Intn(500), val: int64(rng.Intn(100000))})
			i := int32(len(pts) - 1)
			pts[i].subtreeMin = pts[i].val
			live = append(live, tr.Insert(i))
		} else {
			i := rng.Intn(len(live))
			tr.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if op%250 == 0 {
			verify()
		}
	}
	verify()
}

func TestArenaRefresh(t *testing.T) {
	type item struct{ key, val, subtreeMax int }
	var items []item
	tr := NewArena[int32](func(a, b int32) bool { return items[a].key < items[b].key })
	tr.SetUpdate(func(n int32) {
		i := tr.Item(n)
		m := items[i].val
		if l := tr.Left(n); l != None && items[tr.Item(l)].subtreeMax > m {
			m = items[tr.Item(l)].subtreeMax
		}
		if r := tr.Right(n); r != None && items[tr.Item(r)].subtreeMax > m {
			m = items[tr.Item(r)].subtreeMax
		}
		items[i].subtreeMax = m
	})
	var nodes []int32
	for i := 0; i < 64; i++ {
		items = append(items, item{key: i, val: i, subtreeMax: i})
		nodes = append(nodes, tr.Insert(int32(i)))
	}
	if items[tr.Item(tr.Root())].subtreeMax != 63 {
		t.Fatalf("initial max = %d", items[tr.Item(tr.Root())].subtreeMax)
	}
	items[tr.Item(nodes[10])].val = 1000
	tr.Refresh(nodes[10])
	if items[tr.Item(tr.Root())].subtreeMax != 1000 {
		t.Fatalf("after refresh max = %d", items[tr.Item(tr.Root())].subtreeMax)
	}
	tr.Refresh(None) // must not panic
}

func TestArenaDeleteRootRepeatedly(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 100; i++ {
		tr.Insert(i)
	}
	for tr.Len() > 0 {
		tr.Delete(tr.Root())
		checkArenaInvariants(t, tr)
	}
}

// The tests below cover the arena from angles the TestArena* set does not:
// trees thinned by deletes, duplicates mixed with other keys, property
// checks against linear scans, and a second augmentation shape.

// linearFloorCeil is the reference for Floor and Ceil: a scan of vals.
func linearFloorCeil(vals []int, q int) (floor, ceil int, hasFloor, hasCeil bool) {
	for _, v := range vals {
		if v <= q && (!hasFloor || v > floor) {
			floor, hasFloor = v, true
		}
		if v >= q && (!hasCeil || v < ceil) {
			ceil, hasCeil = v, true
		}
	}
	return
}

// checkFloorCeil compares Floor, FloorFunc, and Ceil at q against the
// linear-scan reference over vals (the arena's contents).
func checkFloorCeil(t *testing.T, tr *Arena[int], vals []int, q int) {
	t.Helper()
	wf, wc, hf, hc := linearFloorCeil(vals, q)
	f, c := tr.Floor(q), tr.Ceil(q)
	if (f != None) != hf || (hf && tr.Item(f) != wf) {
		t.Fatalf("Floor(%d) = node %d, want %d (present=%v)", q, f, wf, hf)
	}
	if (c != None) != hc || (hc && tr.Item(c) != wc) {
		t.Fatalf("Ceil(%d) = node %d, want %d (present=%v)", q, c, wc, hc)
	}
	if ff := tr.FloorFunc(func(x int) bool { return x > q }); (ff != None) != hf || (hf && tr.Item(ff) != wf) {
		t.Fatalf("FloorFunc(>%d) = node %d, want %d (present=%v)", q, ff, wf, hf)
	}
}

// TestEmptyTree empties an arena by deletes, not Reset, and checks every
// query treats it as empty.
func TestEmptyTree(t *testing.T) {
	tr := NewArena[int](intLess)
	var nodes []int32
	for i := 0; i < 50; i++ {
		nodes = append(nodes, tr.Insert(i))
	}
	for _, n := range nodes {
		tr.Delete(n)
	}
	if tr.Len() != 0 || tr.Root() != None || tr.Min() != None || tr.Max() != None {
		t.Fatal("arena emptied by deletes is not empty")
	}
	if tr.Search(1) != None || tr.Floor(1) != None || tr.Ceil(1) != None {
		t.Fatal("emptied arena answers Search/Floor/Ceil")
	}
	tr.Ascend(func(int) bool { t.Fatal("Ascend visited an item"); return false })
	checkArenaInvariants(t, tr)
}

// TestInsertAscending checks Max follows every ascending insert.
func TestInsertAscending(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 300; i++ {
		tr.Insert(i)
		if tr.Item(tr.Max()) != i || tr.Item(tr.Min()) != 0 {
			t.Fatalf("after inserting %d: min %d max %d", i, tr.Item(tr.Min()), tr.Item(tr.Max()))
		}
		checkArenaInvariants(t, tr)
	}
}

// TestInsertDescending checks Min follows every descending insert.
func TestInsertDescending(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 299; i >= 0; i-- {
		tr.Insert(i)
		if tr.Item(tr.Min()) != i || tr.Item(tr.Max()) != 299 {
			t.Fatalf("after inserting %d: min %d max %d", i, tr.Item(tr.Min()), tr.Item(tr.Max()))
		}
		checkArenaInvariants(t, tr)
	}
}

// TestDuplicates mixes a duplicated key with distinct neighbours: every
// Floor/Ceil at the key lands on a copy, and deleting all copies leaves
// the neighbours intact.
func TestDuplicates(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 10; i++ {
		tr.Insert(7)
		tr.Insert(i * 3)
	}
	checkArenaInvariants(t, tr)
	for copies := 10; copies > 0; copies-- {
		if f, c := tr.Floor(7), tr.Ceil(7); tr.Item(f) != 7 || tr.Item(c) != 7 {
			t.Fatalf("Floor/Ceil(7) = %d/%d with %d copies", tr.Item(f), tr.Item(c), copies)
		}
		tr.Delete(tr.Search(7))
		checkArenaInvariants(t, tr)
	}
	if tr.Search(7) != None {
		t.Fatal("a copy of 7 survived")
	}
	got := collectArena(tr)
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("neighbours damaged: %v", got)
		}
	}
}

// TestFloorCeil checks Floor, FloorFunc, and Ceil at every query point
// of a tree thinned by deletes.
func TestFloorCeil(t *testing.T) {
	tr := NewArena[int](intLess)
	var nodes []int32
	for v := 0; v <= 100; v += 5 {
		nodes = append(nodes, tr.Insert(v))
	}
	var vals []int
	for i, n := range nodes {
		if i%3 == 1 {
			tr.Delete(n)
		} else {
			vals = append(vals, i*5)
		}
	}
	for q := -5; q <= 105; q++ {
		checkFloorCeil(t, tr, vals, q)
	}
}

// TestNextPrev checks Next and Prev are inverses across duplicates and
// after random deletes.
func TestNextPrev(t *testing.T) {
	tr := NewArena[int](intLess)
	rng := rand.New(rand.NewSource(5))
	var nodes []int32
	for i := 0; i < 400; i++ {
		nodes = append(nodes, tr.Insert(rng.Intn(100)))
	}
	for i := 0; i < 150; i++ {
		j := rng.Intn(len(nodes))
		tr.Delete(nodes[j])
		nodes = append(nodes[:j], nodes[j+1:]...)
	}
	seen := 0
	for n := tr.Min(); n != None; n = tr.Next(n) {
		seen++
		if nx := tr.Next(n); nx != None && tr.Prev(nx) != n {
			t.Fatalf("Prev(Next(%d)) = %d", n, tr.Prev(nx))
		}
	}
	if seen != tr.Len() {
		t.Fatalf("iterated %d of %d", seen, tr.Len())
	}
}

// TestAscendFrom checks the Ceil-then-Next walk the planner uses to scan
// from a key, and that Ascend stops when fn returns false.
func TestAscendFrom(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 100; i += 10 {
		tr.Insert(i)
	}
	var got []int
	for n := tr.Ceil(35); n != None && tr.Item(n) <= 60; n = tr.Next(n) {
		got = append(got, tr.Item(n))
	}
	if len(got) != 3 || got[0] != 40 || got[2] != 60 {
		t.Fatalf("walk from 35 = %v, want [40 50 60]", got)
	}
	visited := 0
	tr.Ascend(func(v int) bool { visited++; return v < 30 })
	if visited != 4 {
		t.Fatalf("Ascend visited %d items, want 4 (stopping at 30)", visited)
	}
}

// TestRandomOpsAgainstReference checks Search, Floor, Ceil, and FloorFunc
// against a reference multiset on every step of a random insert/delete
// stream.
func TestRandomOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := NewArena[int](intLess)
	var ref []int
	for op := 0; op < 3000; op++ {
		if len(ref) == 0 || rng.Intn(100) < 55 {
			v := rng.Intn(500)
			tr.Insert(v)
			ref = append(ref, v)
		} else {
			i := rng.Intn(len(ref))
			tr.Delete(tr.Search(ref[i]))
			ref = append(ref[:i], ref[i+1:]...)
		}
		checkFloorCeil(t, tr, ref, rng.Intn(520)-10)
	}
	checkArenaInvariants(t, tr)
}

// TestAugmentationMaintained keeps an order-statistic augmentation
// (subtree sizes) through random inserts and deletes and selects the k-th
// item with it, checked against a sorted reference.
func TestAugmentationMaintained(t *testing.T) {
	var size []int32
	var keys []int
	tr := NewArena[int32](func(a, b int32) bool { return keys[a] < keys[b] })
	sub := func(n int32) int32 {
		if n == None {
			return 0
		}
		return size[tr.Item(n)]
	}
	tr.SetUpdate(func(n int32) { size[tr.Item(n)] = 1 + sub(tr.Left(n)) + sub(tr.Right(n)) })
	kth := func(k int32) int {
		n := tr.Root()
		for {
			switch l := sub(tr.Left(n)); {
			case k < l:
				n = tr.Left(n)
			case k == l:
				return keys[tr.Item(n)]
			default:
				k -= l + 1
				n = tr.Right(n)
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	var live []int32
	for op := 0; op < 4000; op++ {
		if len(live) == 0 || rng.Intn(100) < 60 {
			keys = append(keys, rng.Intn(1000))
			size = append(size, 1)
			live = append(live, tr.Insert(int32(len(keys)-1)))
		} else {
			i := rng.Intn(len(live))
			tr.Delete(live[i])
			live = append(live[:i], live[i+1:]...)
		}
		if op%200 != 0 {
			continue
		}
		if int(sub(tr.Root())) != tr.Len() {
			t.Fatalf("op %d: root size %d, Len %d", op, sub(tr.Root()), tr.Len())
		}
		var ref []int
		tr.Ascend(func(i int32) bool { ref = append(ref, keys[i]); return true })
		for k := range ref {
			if got := kth(int32(k)); got != ref[k] {
				t.Fatalf("op %d: %d-th = %d, want %d", op, k, got, ref[k])
			}
		}
	}
}

// TestQuickSortedIteration property: ascending iteration yields the
// sorted input.
func TestQuickSortedIteration(t *testing.T) {
	f := func(vals []int) bool {
		tr := NewArena[int](intLess)
		for _, v := range vals {
			tr.Insert(v)
		}
		want := append([]int(nil), vals...)
		sort.Ints(want)
		got := collectArena(tr)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFloorCeil property: Floor/Ceil agree with a linear scan.
func TestQuickFloorCeil(t *testing.T) {
	f := func(vals []int, q int) bool {
		tr := NewArena[int](intLess)
		for _, v := range vals {
			tr.Insert(v)
		}
		wf, wc, hf, hc := linearFloorCeil(vals, q)
		fl, ce := tr.Floor(q), tr.Ceil(q)
		return (fl != None) == hf && (ce != None) == hc &&
			(!hf || tr.Item(fl) == wf) && (!hc || tr.Item(ce) == wc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteRootRepeatedly drains a randomly built tree with duplicates
// through its root, checking order and invariants after every delete.
func TestDeleteRootRepeatedly(t *testing.T) {
	tr := NewArena[int](intLess)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 120; i++ {
		tr.Insert(rng.Intn(40))
	}
	for tr.Len() > 0 {
		tr.Delete(tr.Root())
		checkArenaInvariants(t, tr)
		if !sort.IntsAreSorted(collectArena(tr)) {
			t.Fatal("order broken after deleting the root")
		}
	}
}

func TestSearchMissing(t *testing.T) {
	tr := NewArena[int](intLess)
	for i := 0; i < 50; i += 2 {
		tr.Insert(i)
	}
	for i := 1; i < 50; i += 2 {
		if tr.Search(i) != None {
			t.Fatalf("Search(%d) should be None", i)
		}
	}
}

// TestRefresh lowers a value under a subtree-max aggregate: the root
// aggregate must fall back to the next largest.
func TestRefresh(t *testing.T) {
	type item struct{ key, val, subtreeMax int }
	var items []item
	tr := NewArena[int32](func(a, b int32) bool { return items[a].key < items[b].key })
	tr.SetUpdate(func(n int32) {
		i := tr.Item(n)
		m := items[i].val
		for _, c := range []int32{tr.Left(n), tr.Right(n)} {
			if c != None && items[tr.Item(c)].subtreeMax > m {
				m = items[tr.Item(c)].subtreeMax
			}
		}
		items[i].subtreeMax = m
	})
	var top int32
	for i := 0; i < 64; i++ {
		items = append(items, item{key: i, val: i, subtreeMax: i})
		top = tr.Insert(int32(i))
	}
	items[tr.Item(top)].val = -1
	tr.Refresh(top)
	if got := items[tr.Item(tr.Root())].subtreeMax; got != 62 {
		t.Fatalf("after lowering the max, root aggregate = %d, want 62", got)
	}
}

// FloorFunc(above) must agree with Floor(q) when above(item) == item > q:
// both return the greatest item <= q. The predicate form exists so hot
// paths can query without building a probe item.
func TestFloorFuncMatchesFloor(t *testing.T) {
	tr := NewArena[int](intLess)
	vals := []int{10, 20, 30, 40, 50}
	for _, v := range vals {
		tr.Insert(v)
	}
	for q := 0; q <= 60; q++ {
		checkFloorCeil(t, tr, vals, q)
	}
}

func TestFloorFuncEmptyTree(t *testing.T) {
	tr := NewArena[int](intLess)
	if n := tr.FloorFunc(func(int) bool { return false }); n != None {
		t.Fatalf("FloorFunc on empty arena = %d", n)
	}
}

func TestFloorFuncRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewArena[int](intLess)
	var vals []int
	for i := 0; i < 500; i++ {
		v := rng.Intn(1000)
		tr.Insert(v)
		vals = append(vals, v)
		checkFloorCeil(t, tr, vals, rng.Intn(1100)-50)
	}
}

func BenchmarkArenaInsertDelete(b *testing.B) {
	tr := NewArena[int](intLess)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		tr.Insert(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := tr.Insert(rng.Intn(1 << 20))
		tr.Delete(n)
	}
}
