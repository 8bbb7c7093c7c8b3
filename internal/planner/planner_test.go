package planner

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

func mustAdd(t *testing.T, p *Planner, start, dur, req int64) int64 {
	t.Helper()
	id, err := p.AddSpan(start, dur, req)
	if err != nil {
		t.Fatalf("AddSpan(%d,%d,%d): %v", start, dur, req, err)
	}
	return id
}

// TestPaperFigure3 replays the worked example from paper §4.1 / Figure 3:
// an 8-unit pool with three jobs. The prose lists the second job as
// <3,3,1>, but the stated query answers (earliest 6-for-1 at t5, earliest
// 6-for-2 at t7) correspond to the figure's span covering [1,5), so the
// second span here uses duration 4.
func TestPaperFigure3(t *testing.T) {
	p := MustNew(0, 100, 8, "memory")
	mustAdd(t, p, 0, 1, 8) // <8,1,0>
	mustAdd(t, p, 1, 4, 3) // figure span: 3 units over [1,5)
	mustAdd(t, p, 6, 1, 7) // <7,1,6>

	// Availability timeline: t0:0, t1..t4:5, t5:8, t6:1, t7+:8.
	wantAvail := map[int64]int64{0: 0, 1: 5, 2: 5, 3: 5, 4: 5, 5: 8, 6: 1, 7: 8, 50: 8}
	for at, want := range wantAvail {
		got, err := p.AvailAt(at)
		if err != nil || got != want {
			t.Errorf("AvailAt(%d) = %d, %v; want %d", at, got, err, want)
		}
	}

	// "Can a request of 5 resource units for a duration of 2 be planned
	// at t1 or t6? Yes for t1, no for t6."
	if !p.CanFit(1, 2, 5) {
		t.Error("CanFit(1,2,5) = false, want true")
	}
	if p.CanFit(6, 2, 5) {
		t.Error("CanFit(6,2,5) = true, want false")
	}

	// "Given a job with 6 resource units for 1 duration unit, the
	// earliest point is t5; for a duration of 2 it is t7."
	if got, err := p.AvailTimeFirst(0, 1, 6); err != nil || got != 5 {
		t.Errorf("AvailTimeFirst(0,1,6) = %d, %v; want 5", got, err)
	}
	if got, err := p.AvailTimeFirst(0, 2, 6); err != nil || got != 7 {
		t.Errorf("AvailTimeFirst(0,2,6) = %d, %v; want 7", got, err)
	}
}

// TestSchedPointSizeof pins the scheduled-point slab element to one cache
// line: a busy calendar holds one per span boundary, and the prefix-sum
// aggregates already fill it.
func TestSchedPointSizeof(t *testing.T) {
	if got, max := unsafe.Sizeof(schedPoint{}), uintptr(64); got > max {
		t.Fatalf("sizeof(schedPoint) = %d, budget %d", got, max)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, 8, "x"); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero horizon: err = %v", err)
	}
	if _, err := New(0, 10, 0, "x"); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero total: err = %v", err)
	}
	if _, err := New(5, 10, 3, "x"); err != nil {
		t.Errorf("valid: err = %v", err)
	}
}

func TestAddSpanValidation(t *testing.T) {
	p := MustNew(0, 100, 10, "core")
	if _, err := p.AddSpan(-1, 5, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("before base: %v", err)
	}
	if _, err := p.AddSpan(98, 5, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("past horizon: %v", err)
	}
	if _, err := p.AddSpan(0, 0, 1); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero duration: %v", err)
	}
	if _, err := p.AddSpan(0, 5, 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero request: %v", err)
	}
	if _, err := p.AddSpan(0, 5, 11); !errors.Is(err, ErrNoSpace) {
		t.Errorf("over capacity: %v", err)
	}
	mustAdd(t, p, 0, 10, 6)
	if _, err := p.AddSpan(5, 10, 5); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overlap overflow: %v", err)
	}
	if _, err := p.AddSpan(10, 10, 5); err != nil {
		t.Errorf("adjacent span should fit: %v", err)
	}
}

func TestSpanLookupAndRemove(t *testing.T) {
	p := MustNew(0, 1000, 4, "gpu")
	id := mustAdd(t, p, 10, 20, 3)
	s, err := p.Span(id)
	if err != nil || s.Start != 10 || s.Last != 30 || s.Planned != 3 {
		t.Fatalf("Span(%d) = %+v, %v", id, s, err)
	}
	if avail, _ := p.AvailAt(15); avail != 1 {
		t.Fatalf("AvailAt(15) = %d, want 1", avail)
	}
	if err := p.RemoveSpan(id); err != nil {
		t.Fatal(err)
	}
	if avail, _ := p.AvailAt(15); avail != 4 {
		t.Fatalf("after remove, AvailAt(15) = %d, want 4", avail)
	}
	if err := p.RemoveSpan(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
	if _, err := p.Span(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Span after remove: %v", err)
	}
	if p.PointCount() != 1 {
		t.Fatalf("points not garbage collected: %d", p.PointCount())
	}
}

func TestPointGarbageCollectionSharedBoundary(t *testing.T) {
	p := MustNew(0, 100, 10, "core")
	a := mustAdd(t, p, 0, 10, 2) // boundary at 10
	b := mustAdd(t, p, 10, 10, 2)
	if p.PointCount() != 3 { // 0, 10, 20
		t.Fatalf("points = %d, want 3", p.PointCount())
	}
	if err := p.RemoveSpan(a); err != nil {
		t.Fatal(err)
	}
	// Point 10 still referenced by span b.
	if p.PointCount() != 3 {
		t.Fatalf("points = %d, want 3 (10 still referenced)", p.PointCount())
	}
	if err := p.RemoveSpan(b); err != nil {
		t.Fatal(err)
	}
	if p.PointCount() != 1 {
		t.Fatalf("points = %d, want 1", p.PointCount())
	}
}

func TestAvailTimeFirstFromOffset(t *testing.T) {
	p := MustNew(0, 1000, 8, "mem")
	mustAdd(t, p, 0, 100, 8) // fully busy [0,100)
	mustAdd(t, p, 200, 50, 6)

	// Earliest 4-for-10 from 0 is 100.
	if got, err := p.AvailTimeFirst(0, 10, 4); err != nil || got != 100 {
		t.Fatalf("got %d, %v; want 100", got, err)
	}
	// From 150 (not a scheduled point), 150 itself qualifies.
	if got, err := p.AvailTimeFirst(150, 10, 4); err != nil || got != 150 {
		t.Fatalf("got %d, %v; want 150", got, err)
	}
	// 4-for-100 from 150 collides with [200,250) usage; earliest is 250.
	if got, err := p.AvailTimeFirst(150, 100, 4); err != nil || got != 250 {
		t.Fatalf("got %d, %v; want 250", got, err)
	}
	// Request exceeding total.
	if _, err := p.AvailTimeFirst(0, 1, 9); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Window longer than the remaining horizon.
	if _, err := p.AvailTimeFirst(999, 5, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestAvailTimeFirstNoSpace(t *testing.T) {
	p := MustNew(0, 100, 4, "c")
	mustAdd(t, p, 0, 100, 3)
	// 2 units never fit anywhere within the horizon.
	if _, err := p.AvailTimeFirst(0, 10, 2); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// A failed search must leave the planner unchanged.
	if got, err := p.AvailTimeFirst(0, 10, 1); err != nil || got != 0 {
		t.Fatalf("after failed search: got %d, %v; want 0", got, err)
	}
}

func TestUpdateGrowShrink(t *testing.T) {
	p := MustNew(0, 100, 10, "core")
	mustAdd(t, p, 0, 50, 8)
	if err := p.Update(-3); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("shrink below usage: %v", err)
	}
	if err := p.Update(-2); err != nil {
		t.Fatalf("shrink to fit: %v", err)
	}
	if p.Total() != 8 {
		t.Fatalf("Total = %d, want 8", p.Total())
	}
	if avail, _ := p.AvailAt(10); avail != 0 {
		t.Fatalf("AvailAt(10) = %d, want 0", avail)
	}
	if err := p.Update(4); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if avail, _ := p.AvailAt(10); avail != 4 {
		t.Fatalf("AvailAt(10) = %d, want 4", avail)
	}
	if avail, _ := p.AvailAt(60); avail != 12 {
		t.Fatalf("AvailAt(60) = %d, want 12", avail)
	}
}

func TestPointsIteration(t *testing.T) {
	p := MustNew(0, 100, 8, "m")
	mustAdd(t, p, 10, 10, 5)
	var ats, avails []int64
	p.Points(func(at, avail int64) bool {
		ats = append(ats, at)
		avails = append(avails, avail)
		return true
	})
	wantAts := []int64{0, 10, 20}
	wantAv := []int64{8, 3, 8}
	if len(ats) != 3 {
		t.Fatalf("points: %v", ats)
	}
	for i := range wantAts {
		if ats[i] != wantAts[i] || avails[i] != wantAv[i] {
			t.Fatalf("point %d: (%d,%d), want (%d,%d)", i, ats[i], avails[i], wantAts[i], wantAv[i])
		}
	}
}

// refModel is a brute-force per-tick availability model used to validate
// the planner under randomized workloads.
type refModel struct {
	total int64
	use   []int64 // per tick
}

func newRef(total int64, horizon int) *refModel {
	return &refModel{total: total, use: make([]int64, horizon)}
}

func (r *refModel) availDuring(start, dur int64) int64 {
	min := r.total
	for t := start; t < start+dur; t++ {
		if a := r.total - r.use[t]; a < min {
			min = a
		}
	}
	return min
}

func (r *refModel) add(start, dur, req int64) {
	for t := start; t < start+dur; t++ {
		r.use[t] += req
	}
}

func (r *refModel) remove(start, dur, req int64) {
	for t := start; t < start+dur; t++ {
		r.use[t] -= req
	}
}

func (r *refModel) availTimeFirst(at, dur, req int64) int64 {
	for t := at; t+dur <= int64(len(r.use)); t++ {
		if r.availDuring(t, dur) >= req {
			return t
		}
	}
	return -1
}

// firstNegative returns the first tick a pool of total units would leave
// over-booked, or -1.
func (r *refModel) firstNegative(total int64) int64 {
	for t, u := range r.use {
		if u > total {
			return int64(t)
		}
	}
	return -1
}

// used returns the unit-ticks in use over [from, to).
func (r *refModel) used(from, to int64) (n int64) {
	for t := from; t < to; t++ {
		n += r.use[t]
	}
	return n
}

// refSpan is a live span as the reference tracks it.
type refSpan struct {
	id              int64
	start, dur, req int64
}

// refPoints returns the scheduled-point times the live spans induce: the
// base point 0 plus every span boundary, ascending and unique.
func refPoints(spans []refSpan) []int64 {
	set := map[int64]bool{0: true}
	for _, s := range spans {
		set[s.start], set[s.start+s.dur] = true, true
	}
	out := make([]int64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstRef compares every whole-calendar observable of p with the
// reference: the point profile (Points), Utilization,
// the AvailPointTimeAfter iterator, and the internal invariants.
func checkAgainstRef(t *testing.T, op int, rng *rand.Rand, p *Planner, ref *refModel, spans []refSpan) {
	t.Helper()
	horizon := int64(len(ref.use))
	wantPts := refPoints(spans)
	var k int
	p.Points(func(at, avail int64) bool {
		want := ref.total
		if at < horizon {
			want -= ref.use[at]
		}
		if k >= len(wantPts) || at != wantPts[k] || avail != want {
			t.Fatalf("op %d: point %d = (%d,%d), ref points %v avail %d", op, k, at, avail, wantPts, want)
		}
		k++
		return true
	})
	if k != len(wantPts) {
		t.Fatalf("op %d: Points visited %d, ref has %d", op, k, len(wantPts))
	}

	at := int64(rng.Intn(int(horizon)))
	dur := int64(rng.Intn(int(horizon-at))) + 1
	if ref.total > 0 {
		want := float64(ref.used(at, at+dur)) / float64(ref.total*dur)
		if got, err := p.Utilization(at, at+dur); err != nil || got != want {
			t.Fatalf("op %d: Utilization(%d,%d) = %v, %v; ref %v", op, at, at+dur, got, err, want)
		}
	}

	after := int64(rng.Intn(int(horizon))) - 5
	qdur := int64(rng.Intn(40)) + 1
	req := int64(rng.Intn(int(ref.total)+2)) + 1
	want := int64(-1)
	for _, pt := range wantPts {
		if pt > after && pt+qdur <= horizon && ref.availDuring(pt, qdur) >= req {
			want = pt
			break
		}
	}
	got, err := p.AvailPointTimeAfter(after, qdur, req)
	if want == -1 {
		if err == nil {
			t.Fatalf("op %d: AvailPointTimeAfter(%d,%d,%d) = %d, ref says none", op, after, qdur, req, got)
		}
	} else if err != nil || got != want {
		t.Fatalf("op %d: AvailPointTimeAfter(%d,%d,%d) = %d, %v; ref %d", op, after, qdur, req, got, err, want)
	}

	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("op %d: %v", op, err)
	}
}

// TestRandomAgainstReference cross-checks every planner query against the
// brute-force model across thousands of random add/remove/resize
// operations, including shrinks the calendar must reject.
func TestRandomAgainstReference(t *testing.T) {
	const (
		horizon = 240
		total   = 16
	)
	rng := rand.New(rand.NewSource(99))
	p := MustNew(0, horizon, total, "x")
	ref := newRef(total, horizon)
	var spans []refSpan

	for op := 0; op < 6000; op++ {
		switch k := rng.Intn(100); {
		case len(spans) == 0 || k < 55:
			// Mostly short spans, so dozens stay live and the tree is
			// several levels deep; every fifth may run to the horizon.
			start := int64(rng.Intn(horizon - 1))
			dur := int64(rng.Intn(int(min(int64(horizon)-start, 30)))) + 1
			if rng.Intn(5) == 0 {
				dur = int64(rng.Intn(int(int64(horizon)-start))) + 1
			}
			req := int64(rng.Intn(int(ref.total)/2+2)) + 1
			wantOK := ref.availDuring(start, dur) >= req
			id, err := p.AddSpan(start, dur, req)
			if wantOK != (err == nil) {
				t.Fatalf("op %d: AddSpan(%d,%d,%d) err=%v, ref ok=%v", op, start, dur, req, err, wantOK)
			}
			if err == nil {
				ref.add(start, dur, req)
				spans = append(spans, refSpan{id, start, dur, req})
			}
		case k < 65:
			// -4..4, pulled back towards the initial pool size.
			delta := int64(rng.Intn(9)) - 4 + (total-ref.total)/4
			if delta == 0 {
				delta = 1
			}
			first := ref.firstNegative(ref.total + delta)
			err := p.Update(delta)
			switch {
			case first < 0 && err != nil:
				t.Fatalf("op %d: Update(%d) on total %d: %v", op, delta, ref.total, err)
			case first < 0:
				ref.total += delta
			case !errors.Is(err, ErrNoSpace) || !strings.Contains(err.Error(), fmt.Sprintf("point %d negative", first)):
				t.Fatalf("op %d: Update(%d) on total %d = %v, want ErrNoSpace naming point %d", op, delta, ref.total, err, first)
			}
			if got := p.Total(); got != ref.total {
				t.Fatalf("op %d: Total = %d, ref %d", op, got, ref.total)
			}
		default:
			i := rng.Intn(len(spans))
			s := spans[i]
			if err := p.RemoveSpan(s.id); err != nil {
				t.Fatalf("op %d: RemoveSpan: %v", op, err)
			}
			ref.remove(s.start, s.dur, s.req)
			spans = append(spans[:i], spans[i+1:]...)
			if _, err := p.Span(s.id); !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: removed span %d still found (%v)", op, s.id, err)
			}
		}

		// The span index: every live span found by ID whatever was removed
		// around it, and enumeration in ascending ID order.
		if len(spans) > 0 {
			s := spans[rng.Intn(len(spans))]
			if got, err := p.Span(s.id); err != nil || got != (Span{s.id, s.start, s.start + s.dur, s.req}) {
				t.Fatalf("op %d: Span(%d) = %+v, %v", op, s.id, got, err)
			}
		}
		if op%50 == 0 {
			last, n := int64(0), 0
			p.Spans(func(s Span) bool {
				if s.ID <= last {
					t.Fatalf("op %d: Spans out of order: %d after %d", op, s.ID, last)
				}
				last, n = s.ID, n+1
				return true
			})
			if n != len(spans) {
				t.Fatalf("op %d: Spans visited %d, %d live", op, n, len(spans))
			}
		}
		checkAgainstRef(t, op, rng, p, ref, spans)

		// Cross-check queries.
		at := int64(rng.Intn(horizon))
		if got, err := p.AvailAt(at); err != nil || got != ref.availDuring(at, 1) {
			t.Fatalf("op %d: AvailAt(%d) = %d, %v; ref %d", op, at, got, err, ref.availDuring(at, 1))
		}
		dur := int64(rng.Intn(horizon-int(at))) + 1
		if got, err := p.AvailDuring(at, dur); err != nil || got != ref.availDuring(at, dur) {
			t.Fatalf("op %d: AvailDuring(%d,%d) = %d, %v; ref %d", op, at, dur, got, err, ref.availDuring(at, dur))
		}
		req := int64(rng.Intn(int(ref.total)+1)) + 1
		qdur := int64(rng.Intn(40)) + 1
		qat := int64(rng.Intn(horizon - 40))
		want := ref.availTimeFirst(qat, qdur, req)
		got, err := p.AvailTimeFirst(qat, qdur, req)
		if want == -1 {
			if err == nil {
				t.Fatalf("op %d: AvailTimeFirst(%d,%d,%d) = %d, ref says none", op, qat, qdur, req, got)
			}
		} else if err != nil || got != want {
			t.Fatalf("op %d: AvailTimeFirst(%d,%d,%d) = %d, %v; ref %d", op, qat, qdur, req, got, err, want)
		}
	}
}

// TestSearchLeavesPlannerUnchanged verifies that earliest-fit searches are
// pure reads: the point profile, the span set and the invariants are the
// same after a batch of successful and failed searches, and a repeated
// query gives the same answer.
func TestSearchLeavesPlannerUnchanged(t *testing.T) {
	p := MustNew(0, 10000, 32, "c")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		start := int64(rng.Intn(9000))
		dur := int64(rng.Intn(500)) + 1
		req := int64(rng.Intn(8)) + 1
		_, _ = p.AddSpan(start, dur, req)
	}
	profile := func() (pts [][2]int64, spans []Span) {
		p.Points(func(at, avail int64) bool { pts = append(pts, [2]int64{at, avail}); return true })
		p.Spans(func(s Span) bool { spans = append(spans, s); return true })
		return pts, spans
	}
	beforePts, beforeSpans := profile()
	// Query from a late offset so many qualifying candidates are skipped.
	t1, err1 := p.AvailTimeFirst(8000, 100, 30)
	for q := 0; q < 200; q++ {
		at := int64(rng.Intn(9900))
		req := int64(rng.Intn(33))
		_, _ = p.AvailTimeFirst(at, 100, req)
		_, _ = p.AvailPointTimeAfter(at, 100, req)
	}
	afterPts, afterSpans := profile()
	if !reflect.DeepEqual(beforePts, afterPts) || !reflect.DeepEqual(beforeSpans, afterSpans) {
		t.Fatalf("searches changed the planner: %d points/%d spans -> %d/%d",
			len(beforePts), len(beforeSpans), len(afterPts), len(afterSpans))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t2, err2 := p.AvailTimeFirst(8000, 100, 30)
	if t1 != t2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("repeat query disagrees: (%d,%v) vs (%d,%v)", t1, err1, t2, err2)
	}
}

func TestManySpansLogarithmicShape(t *testing.T) {
	// Smoke-check that a planner with many spans still answers queries;
	// the benchmark harness measures the scaling shape (paper Fig. 6b).
	p := MustNew(0, 43200, 128, "r")
	rng := rand.New(rand.NewSource(1))
	added := 0
	for i := 0; i < 5000; i++ {
		req := int64(rng.Intn(128)) + 1
		dur := int64(rng.Intn(4000)) + 1
		at, err := p.AvailTimeFirst(0, dur, req)
		if err != nil {
			continue
		}
		if _, err := p.AddSpan(at, dur, req); err != nil {
			t.Fatalf("AddSpan after AvailTimeFirst: %v", err)
		}
		added++
	}
	if added < 100 {
		t.Fatalf("only %d spans added", added)
	}
	if _, err := p.AvailAt(100); err != nil {
		t.Fatal(err)
	}
}

func TestSpansIteration(t *testing.T) {
	p := MustNew(0, 1000, 8, "m")
	id1 := mustAdd(t, p, 0, 10, 2)
	id2 := mustAdd(t, p, 5, 10, 3)
	var got []Span
	p.Spans(func(s Span) bool { got = append(got, s); return true })
	if len(got) != 2 || got[0].ID != id1 || got[1].ID != id2 {
		t.Fatalf("spans = %+v", got)
	}
	if got[1].Start != 5 || got[1].Last != 15 || got[1].Planned != 3 {
		t.Fatalf("span2 = %+v", got[1])
	}
	n := 0
	p.Spans(func(Span) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestUtilization(t *testing.T) {
	p := MustNew(0, 1000, 10, "c")
	mustAdd(t, p, 0, 10, 10) // 100 unit-seconds
	mustAdd(t, p, 10, 10, 5) // 50
	// [0,20): 150 of 200 = 0.75.
	u, err := p.Utilization(0, 20)
	if err != nil || u != 0.75 {
		t.Fatalf("u = %v, %v", u, err)
	}
	// Window starting mid-span: [5,15): 50 + 25 = 75 of 100.
	u, err = p.Utilization(5, 15)
	if err != nil || u != 0.75 {
		t.Fatalf("mid u = %v, %v", u, err)
	}
	// Idle tail.
	u, err = p.Utilization(20, 1000)
	if err != nil || u != 0 {
		t.Fatalf("idle u = %v, %v", u, err)
	}
	// Errors.
	if _, err := p.Utilization(10, 10); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty window: %v", err)
	}
	if _, err := p.Utilization(-1, 10); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
}

// TestSPAugmentationValid verifies the prefix-sum aggregates of every SP
// subtree after random mutations, recomputing each from the subtree's
// in-order deltas rather than from its children.
func TestSPAugmentationValid(t *testing.T) {
	p := MustNew(0, 500, 10, "x")
	rng := rand.New(rand.NewSource(23))
	var ids []int64
	for op := 0; op < 2000; op++ {
		if len(ids) == 0 || rng.Intn(100) < 55 {
			start := int64(rng.Intn(400))
			dur := int64(rng.Intn(99)) + 1
			req := int64(rng.Intn(3)) + 1
			if id, err := p.AddSpan(start, dur, req); err == nil {
				ids = append(ids, id)
			}
		} else {
			i := rng.Intn(len(ids))
			if err := p.RemoveSpan(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		}
		if op%100 == 0 {
			validateSPAug(t, p)
		}
	}
	validateSPAug(t, p)
}

func validateSPAug(t *testing.T, p *Planner) {
	t.Helper()
	if !p.active() {
		return
	}
	var inorder func(i int32) []schedPoint
	inorder = func(i int32) []schedPoint {
		if i == noPoint {
			return nil
		}
		out := append(inorder(p.pts[i].left), p.pts[i])
		return append(out, inorder(p.pts[i].right)...)
	}
	var walk func(i int32)
	walk = func(i int32) {
		if i == noPoint {
			return
		}
		var sum int64
		maxPre, minPre := int64(-1<<62), int64(1<<62)
		for _, q := range inorder(i) {
			sum += q.delta
			maxPre, minPre = max(maxPre, sum), min(minPre, sum)
		}
		pt := p.pts[i]
		if pt.sum != sum || pt.maxPre != maxPre || pt.minPre != minPre {
			t.Fatalf("aug stale at t=%d: (%d,%d,%d) want (%d,%d,%d)", pt.at,
				pt.sum, pt.maxPre, pt.minPre, sum, maxPre, minPre)
		}
		walk(pt.left)
		walk(pt.right)
	}
	walk(p.root)
}
