package planner

import (
	"math/rand"
	"sort"
	"testing"
)

// The tests below drive the SP tree directly through edit, on a bare
// calendar whose base lies before every key, so no point is pinned:
// edit(t, d, 1) adds a reference and d units at t, creating the point,
// and edit(t, -delta, -refs) drops every reference and deletes it.
// checkTree validates the red-black shape, the parent links, the
// aggregates, n and the freelist.

func newTree() *Planner {
	return &Planner{base: -1, pts: make([]schedPoint, 1)}
}

func mustCheckTree(t *testing.T, p *Planner) {
	t.Helper()
	if err := p.checkTree(); err != nil {
		t.Fatal(err)
	}
}

// treeKeys returns the tree's times in iteration (first/next) order.
func treeKeys(p *Planner) []int64 {
	var out []int64
	for i := p.first(); i != noPoint; i = p.next(i) {
		out = append(out, p.pts[i].at)
	}
	return out
}

func TestTreeInsertAscendingDescending(t *testing.T) {
	for _, desc := range []bool{false, true} {
		p := newTree()
		for i := int64(0); i < 1000; i++ {
			k := i
			if desc {
				k = 999 - i
			}
			p.edit(k, 1, 1)
			if i%97 == 0 {
				mustCheckTree(t, p)
			}
		}
		mustCheckTree(t, p)
		got := treeKeys(p)
		if len(got) != 1000 {
			t.Fatalf("desc=%v: %d keys", desc, len(got))
		}
		for i, k := range got {
			if k != int64(i) {
				t.Fatalf("desc=%v: key %d = %d", desc, i, k)
			}
		}
		if root := &p.pts[p.root]; root.sum != 1000 || root.minPre != 1 || root.maxPre != 1000 {
			t.Fatalf("desc=%v: root aggregates (%d, [%d,%d])", desc, root.sum, root.minPre, root.maxPre)
		}
	}
}

// TestTreeRandomOpsAgainstReference drives random inserts, edits of
// existing points and deletes, and compares keys, deltas and count with a
// map after every operation; the shape and aggregates are checked every
// few operations.
func TestTreeRandomOpsAgainstReference(t *testing.T) {
	type ref struct {
		refs  int32
		delta int64
	}
	rng := rand.New(rand.NewSource(7))
	p := newTree()
	want := map[int64]ref{}
	var keys []int64
	for op := 0; op < 20000; op++ {
		if len(want) == 0 || rng.Intn(100) < 60 {
			k := int64(rng.Intn(2000))
			d := int64(rng.Intn(21)) - 10
			p.edit(k, d, 1)
			r := want[k]
			want[k] = ref{r.refs + 1, r.delta + d}
		} else {
			keys = keys[:0]
			for k := range want {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			k := keys[rng.Intn(len(keys))]
			r := want[k]
			p.edit(k, -r.delta, -r.refs)
			delete(want, k)
		}
		if int(p.n) != len(want) {
			t.Fatalf("op %d: n = %d, want %d", op, p.n, len(want))
		}
		if op%250 == 0 {
			mustCheckTree(t, p)
			var sum int64
			for i := p.first(); i != noPoint; i = p.next(i) {
				pt := &p.pts[i]
				if r, ok := want[pt.at]; !ok || r.refs != pt.refCount || r.delta != pt.delta {
					t.Fatalf("op %d: point %d (refs %d, delta %d), want %+v", op, pt.at, pt.refCount, pt.delta, r)
				}
				sum += pt.delta
			}
			if p.pts[p.root].sum != sum {
				t.Fatalf("op %d: root sum %d, want %d", op, p.pts[p.root].sum, sum)
			}
		}
	}
	mustCheckTree(t, p)
	if got := treeKeys(p); len(got) != len(want) || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("%d keys in order, want %d", len(got), len(want))
	}
}

// TestTreeFreelistReuse checks that deleted slots are recycled rather than
// growing the slab.
func TestTreeFreelistReuse(t *testing.T) {
	p := newTree()
	for i := int64(0); i < 64; i++ {
		p.edit(i*10, 1, 1)
	}
	p.edit(5, 2, 1) // the first churn slot grows the slab once
	p.edit(5, -2, -1)
	grown := len(p.pts)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 10000; op++ {
		k := int64(rng.Intn(1000))*10 + 5 // never an existing key
		p.edit(k, 2, 1)
		p.edit(k, -2, -1)
	}
	if len(p.pts) != grown {
		t.Fatalf("slab grew during churn: %d -> %d slots", grown, len(p.pts))
	}
	mustCheckTree(t, p)
}

// TestTreeReuseAfterDemote checks that a planner emptied of spans keeps its
// slab and span slice, and that the next busy period reuses them.
func TestTreeReuseAfterDemote(t *testing.T) {
	p := MustNew(0, 1000, 8, "core")
	var ids []int64
	for i := int64(0); i < 100; i++ {
		ids = append(ids, mustAdd(t, p, i*5, 3, 1))
	}
	slab, spans := cap(p.pts), cap(p.spans)
	for i := len(ids) - 1; i >= 0; i-- { // newest first: no span is resliced off the front
		if err := p.RemoveSpan(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if p.active() || p.n != 0 || p.free != noPoint || len(p.pts) != 1 {
		t.Fatalf("demote left root %d, n %d, free %d, %d slots", p.root, p.n, p.free, len(p.pts))
	}
	if cap(p.pts) != slab || cap(p.spans) != spans {
		t.Fatalf("demote dropped capacity: slab %d -> %d, spans %d -> %d", slab, cap(p.pts), spans, cap(p.spans))
	}
	for i := int64(99); i >= 0; i-- {
		mustAdd(t, p, i*5, 3, 1)
	}
	if cap(p.pts) != slab || cap(p.spans) != spans {
		t.Fatalf("reuse reallocated: slab %d -> %d, spans %d -> %d", slab, cap(p.pts), spans, cap(p.spans))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.PointCount(); got != 200 {
		t.Fatalf("PointCount = %d, want 200", got)
	}
}

func TestTreeDeleteRootRepeatedly(t *testing.T) {
	p := newTree()
	for i := int64(0); i < 100; i++ {
		p.edit(i, i%7-3, 1)
	}
	for p.root != noPoint {
		p.deletePoint(p.root)
		mustCheckTree(t, p)
	}
	if p.n != 0 || len(p.pts) != 101 {
		t.Fatalf("n = %d, %d slots", p.n, len(p.pts))
	}
}

// TestFirstSpanAllocs pins the calendar's allocations: the first span on a
// fresh planner costs the point slab and the span slice, and a planner
// that has been busy before reuses both for its next busy period.
func TestFirstSpanAllocs(t *testing.T) {
	const runs = 100
	ps := make([]Planner, runs+1) // AllocsPerRun adds one warm-up run
	k := 0
	cycle := func(p *Planner) {
		id, err := p.AddSpan(10, 20, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RemoveSpan(id); err != nil {
			t.Fatal(err)
		}
	}
	fresh := testing.AllocsPerRun(runs, func() {
		p := &ps[k]
		k++
		if err := Init(p, 0, 1000, 8, "core"); err != nil {
			t.Fatal(err)
		}
		cycle(p)
	})
	if fresh > 2 {
		t.Errorf("first AddSpan+RemoveSpan on a fresh planner: %v allocs, budget 2", fresh)
	}
	p := &ps[0]
	if again := testing.AllocsPerRun(runs, func() { cycle(p) }); again != 0 {
		t.Errorf("AddSpan+RemoveSpan on a demoted planner: %v allocs, budget 0", again)
	}
}

// FuzzPlannerOps drives AddSpan, RemoveSpan and Update from fuzz input (one
// byte per draw) against the brute-force model, checking the invariants —
// the tree's red-black shape included — and one AvailDuring window after
// every operation.
func FuzzPlannerOps(f *testing.F) {
	f.Add([]byte{0, 3, 10, 2, 0, 40, 5, 7, 1, 2, 3, 5, 0, 0, 6, 1, 7, 2, 0, 20, 20, 3})
	f.Add([]byte{7, 0, 7, 9, 0, 1, 1, 8, 0, 62, 1, 7, 5, 0, 7, 8, 6, 0, 6, 0, 7, 3})
	f.Add([]byte{1, 5, 5, 5, 2, 6, 6, 6, 3, 7, 7, 7, 4, 8, 8, 8, 5, 0, 6, 1, 6, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const horizon, total = 64, 8
		p := MustNew(0, horizon, total, "x")
		ref := newRef(total, horizon)
		var spans []refSpan
		next := func(n int64) int64 {
			if len(data) == 0 {
				return 0
			}
			v := int64(data[0]) % n
			data = data[1:]
			return v
		}
		for op := 0; len(data) > 0 && op < 500; op++ {
			switch k := next(8); {
			case k < 5 || len(spans) == 0:
				start := next(horizon - 1)
				dur := next(horizon-start) + 1
				req := next(total) + 1
				wantOK := ref.availDuring(start, dur) >= req
				id, err := p.AddSpan(start, dur, req)
				if wantOK != (err == nil) {
					t.Fatalf("op %d: AddSpan(%d,%d,%d) err=%v, ref ok=%v", op, start, dur, req, err, wantOK)
				}
				if err == nil {
					ref.add(start, dur, req)
					spans = append(spans, refSpan{id, start, dur, req})
				}
			case k < 7:
				i := next(int64(len(spans)))
				s := spans[i]
				if err := p.RemoveSpan(s.id); err != nil {
					t.Fatalf("op %d: RemoveSpan(%d): %v", op, s.id, err)
				}
				ref.remove(s.start, s.dur, s.req)
				spans = append(spans[:i], spans[i+1:]...)
			default:
				delta := next(9) - 4
				wantOK := ref.firstNegative(ref.total+delta) < 0
				if err := p.Update(delta); wantOK != (err == nil) {
					t.Fatalf("op %d: Update(%d) on total %d: err=%v, ref ok=%v", op, delta, ref.total, err, wantOK)
				}
				if wantOK {
					ref.total += delta
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			at := next(horizon)
			dur := next(horizon-at) + 1
			if got, err := p.AvailDuring(at, dur); err != nil || got != ref.availDuring(at, dur) {
				t.Fatalf("op %d: AvailDuring(%d,%d) = %d, %v; ref %d", op, at, dur, got, err, ref.availDuring(at, dur))
			}
		}
	})
}
