package planner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Type IDs of the fixed three-member filter, deliberately sparse so the
// dense member table has holes.
const (
	idGPU    int32 = 1
	idCore   int32 = 3
	idMemory int32 = 7
)

func newTestMulti(t *testing.T) *Multi {
	t.Helper()
	m, err := NewMulti(0, 1000, map[int32]int64{idCore: 40, idMemory: 256, idGPU: 4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustAddMember plans units of type id on m's member planner.
func mustAddMember(t *testing.T, m *Multi, id int32, start, dur, units int64) int64 {
	t.Helper()
	span, err := m.PlannerByID(id).AddSpan(start, dur, units)
	if err != nil {
		t.Fatal(err)
	}
	return span
}

func TestMultiBasics(t *testing.T) {
	m := newTestMulti(t)
	if got := m.IDs(); len(got) != 3 || got[0] != idGPU || got[1] != idCore || got[2] != idMemory {
		t.Fatalf("IDs() = %v", got)
	}
	if m.PlannerByID(idCore).Total() != 40 || m.PlannerByID(idGPU).Total() != 4 {
		t.Fatal("member totals mismatch")
	}
	if m.PlannerByID(idCore) == m.PlannerByID(idMemory) {
		t.Fatal("members share a planner")
	}
	var none *Multi
	if none.PlannerByID(idCore) != nil {
		t.Fatal("nil Multi has members")
	}
}

func TestIndexTypesPlannerByID(t *testing.T) {
	m := newTestMulti(t)
	for _, id := range m.IDs() {
		if m.PlannerByID(id) == nil {
			t.Fatalf("member %d not indexed", id)
		}
	}
	// Untracked IDs, negatives, and out-of-range IDs return nil.
	for _, id := range []int32{-1, 0, 2, 6, 100} {
		if m.PlannerByID(id) != nil {
			t.Fatalf("PlannerByID(%d) = non-nil for untracked type", id)
		}
	}
}

func TestMultiValidation(t *testing.T) {
	if _, err := NewMulti(0, 100, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty totals: %v", err)
	}
	if _, err := NewMulti(0, 100, map[int32]int64{0: 0}); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero total: %v", err)
	}
	if _, err := NewMulti(0, 100, map[int32]int64{-1: 4}); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative type ID: %v", err)
	}
	m := newTestMulti(t)
	if _, err := m.AvailPointTimeAfter(0, 10, []int32{2}, []int64{1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("untracked type: %v", err)
	}
	if _, err := m.AvailPointTimeAfter(0, 10, []int32{idCore}, []int64{1, 2}); !errors.Is(err, ErrInvalid) {
		t.Errorf("length mismatch: %v", err)
	}
	if _, err := m.AvailPointTimeAfter(0, 10, nil, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty request: %v", err)
	}
}

// memberSpans counts the live spans across m's members.
func memberSpans(m *Multi) (n int) {
	for _, id := range m.IDs() {
		n += m.PlannerByID(id).SpanCount()
	}
	return n
}

// multiState renders m's members, totals, span counts and points.
func multiState(m *Multi) string {
	var b strings.Builder
	for _, id := range m.IDs() {
		p := m.PlannerByID(id)
		fmt.Fprintf(&b, "%d: total=%d spans=%d points=", id, p.Total(), p.SpanCount())
		p.Points(func(at, avail int64) bool {
			fmt.Fprintf(&b, "(%d,%d)", at, avail)
			return true
		})
		b.WriteByte('\n')
	}
	return b.String()
}

func TestMultiAddRemove(t *testing.T) {
	m := newTestMulti(t)
	// A multi-span is one member span per requested type.
	ids := []int32{idCore, idMemory, idGPU}
	spans := []int64{
		mustAddMember(t, m, idCore, 0, 100, 10),
		mustAddMember(t, m, idMemory, 0, 100, 64),
		mustAddMember(t, m, idGPU, 0, 100, 1),
	}
	if got, err := m.AvailPointTimeAfter(-1, 100, ids, []int64{30, 192, 3}); err != nil || got != 0 {
		t.Errorf("remaining capacity = %d, %v; want it to fit at 0", got, err)
	}
	if got, err := m.AvailPointTimeAfter(-1, 100, []int32{idCore}, []int64{31}); err != nil || got != 100 {
		t.Errorf("31 cores = %d, %v; want 100", got, err)
	}
	for i, id := range ids {
		if err := m.PlannerByID(id).RemoveSpan(spans[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := m.AvailPointTimeAfter(-1, 100, ids, []int64{40, 256, 4}); err != nil || got != 0 {
		t.Errorf("full capacity after removal = %d, %v; want 0", got, err)
	}
	if err := m.PlannerByID(idCore).RemoveSpan(spans[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
}

func TestMultiAtomicRollback(t *testing.T) {
	m := newTestMulti(t)
	// Saturate gpus during [50, 60).
	mustAddMember(t, m, idGPU, 50, 10, 4)
	before := multiState(m)
	// A gpu span over [40, 70) does not fit; a busy pool cannot shrink;
	// an untracked pool cannot shrink. None of them may leave a trace.
	if _, err := m.PlannerByID(idGPU).AddSpan(40, 30, 1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("gpu over a full window: want ErrNoSpace, got %v", err)
	}
	if err := m.Update(idGPU, -1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("shrink busy gpu: want ErrNoSpace, got %v", err)
	}
	if err := m.Update(2, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("shrink untracked: want ErrInvalid, got %v", err)
	}
	if after := multiState(m); after != before {
		t.Fatalf("failed edits changed the filter:\nbefore:\n%safter:\n%s", before, after)
	}
	// The core and memory members are whole over the failed window, and
	// a one-gpu request fits once the gpus free up.
	if got, err := m.AvailPointTimeAfter(-1, 30, []int32{idCore, idMemory}, []int64{40, 256}); err != nil || got != 0 {
		t.Errorf("core/memory over [0, 30) = %d, %v; want 0", got, err)
	}
	if got, err := m.AvailPointTimeAfter(39, 30, []int32{idCore, idGPU}, []int64{10, 1}); err != nil || got != 60 {
		t.Errorf("core+gpu after 39 = %d, %v; want 60", got, err)
	}
}

func TestMultiSpanCount(t *testing.T) {
	m := newTestMulti(t)
	s1 := mustAddMember(t, m, idCore, 0, 10, 1)
	s2 := mustAddMember(t, m, idGPU, 0, 10, 1)
	s3 := mustAddMember(t, m, idMemory, 0, 10, 8)
	if n := memberSpans(m); n != 3 {
		t.Fatalf("member spans = %d, want 3", n)
	}
	// Pool edits, including a new member, leave the spans alone.
	if err := m.Update(idCore, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(12, 4); err != nil {
		t.Fatal(err)
	}
	if n := memberSpans(m); n != 3 {
		t.Fatalf("member spans = %d after pool edits, want 3", n)
	}
	_ = m.PlannerByID(idCore).RemoveSpan(s1)
	_ = m.PlannerByID(idGPU).RemoveSpan(s2)
	_ = m.PlannerByID(idMemory).RemoveSpan(s3)
	if n := memberSpans(m); n != 0 {
		t.Fatalf("member spans = %d after removals", n)
	}
}

func TestMultiAvailTimeFirst(t *testing.T) {
	m := newTestMulti(t)
	// cores busy [0,100), gpus busy [50,150).
	mustAddMember(t, m, idCore, 0, 100, 40)
	mustAddMember(t, m, idGPU, 50, 100, 4)
	// A request needing both becomes feasible only at 150.
	got, err := m.AvailPointTimeAfter(-1, 10, []int32{idCore, idGPU}, []int64{1, 1})
	if err != nil || got != 150 {
		t.Fatalf("core+gpu = %d, %v; want 150", got, err)
	}
	// A memory-only request fits at the base point.
	got, err = m.AvailPointTimeAfter(-1, 10, []int32{idMemory}, []int64{256})
	if err != nil || got != 0 {
		t.Fatalf("memory-only = %d, %v; want 0", got, err)
	}
	// Impossible request.
	if _, err := m.AvailPointTimeAfter(-1, 10, []int32{idGPU}, []int64{5}); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
}

func TestMultiAvailTimeFirstNonAnchorBlocking(t *testing.T) {
	// Regression: the earliest feasible time can be a change point of a
	// type other than the scarcest one: cores busy [0,150), gpus busy
	// [0,100), so the gpu release point at 100 is not yet feasible.
	m, err := NewMulti(0, 1000, map[int32]int64{idCore: 40, idGPU: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustAddMember(t, m, idCore, 0, 150, 40)
	mustAddMember(t, m, idGPU, 0, 100, 4)
	got, err := m.AvailPointTimeAfter(0, 10, []int32{idCore, idGPU}, []int64{1, 1})
	if err != nil || got != 150 {
		t.Fatalf("AvailPointTimeAfter = %d, %v; want 150", got, err)
	}
}

func TestMultiAvailPointTimeAfter(t *testing.T) {
	m := newTestMulti(t)
	mustAddMember(t, m, idCore, 0, 100, 40)
	mustAddMember(t, m, idGPU, 200, 50, 4)
	ids, units := []int32{idCore, idGPU}, []int64{1, 1}
	// First change point after 0 where both fit: 100.
	got, err := m.AvailPointTimeAfter(0, 10, ids, units)
	if err != nil || got != 100 {
		t.Fatalf("first = %d, %v; want 100", got, err)
	}
	// Next after 100: the gpu release point at 250.
	got, err = m.AvailPointTimeAfter(100, 10, ids, units)
	if err != nil || got != 250 {
		t.Fatalf("second = %d, %v; want 250", got, err)
	}
	// No more change points after 250.
	if _, err := m.AvailPointTimeAfter(250, 10, ids, units); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("third: %v", err)
	}
}

func TestMultiUpdate(t *testing.T) {
	m := newTestMulti(t)
	if err := m.Update(idCore, 8); err != nil {
		t.Fatal(err)
	}
	if got := m.PlannerByID(idCore).Total(); got != 48 {
		t.Fatalf("core total = %d, want 48", got)
	}
	// Shrinking an untracked type is an error.
	if err := m.Update(2, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("shrink untracked: %v", err)
	}
	// Shrink below usage fails.
	mustAddMember(t, m, idGPU, 0, 10, 4)
	if err := m.Update(idGPU, -1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("shrink busy gpu: %v", err)
	}
}

func TestIndexTypesSurvivesUpdate(t *testing.T) {
	m := newTestMulti(t)
	core := m.PlannerByID(idCore)
	// Growing an untracked type creates its member, past the end of the
	// table, and keeps the existing members indexed.
	const idSSD int32 = 12
	if err := m.Update(idSSD, 16); err != nil {
		t.Fatal(err)
	}
	if p := m.PlannerByID(idSSD); p == nil || p.Total() != 16 {
		t.Fatalf("ssd member = %v", p)
	}
	if got := m.IDs(); len(got) != 4 || got[3] != idSSD {
		t.Fatalf("IDs() = %v", got)
	}
	if m.PlannerByID(idCore) != core {
		t.Fatal("existing member lost after growth")
	}
	// A new ID inside the table fills a hole.
	if err := m.Update(2, 1); err != nil || m.PlannerByID(2) == nil {
		t.Fatalf("hole member: %v", err)
	}
	if got := m.IDs(); len(got) != 5 || got[1] != 2 {
		t.Fatalf("IDs() = %v", got)
	}
}

func TestPlannerAvailPointTimeAfter(t *testing.T) {
	p := MustNew(0, 1000, 8, "c")
	mustAddMulti := func(start, dur, req int64) {
		t.Helper()
		if _, err := p.AddSpan(start, dur, req); err != nil {
			t.Fatal(err)
		}
	}
	mustAddMulti(0, 100, 8)
	mustAddMulti(150, 50, 8)
	// Points: 0(0), 100(8), 150(0), 200(8).
	got, err := p.AvailPointTimeAfter(0, 10, 4)
	if err != nil || got != 100 {
		t.Fatalf("after 0 = %d, %v; want 100", got, err)
	}
	got, err = p.AvailPointTimeAfter(100, 10, 4)
	if err != nil || got != 200 {
		t.Fatalf("after 100 = %d, %v; want 200", got, err)
	}
	// 40-long window from 100 hits the busy [150,200) stretch.
	got, err = p.AvailPointTimeAfter(99, 60, 4)
	if err != nil || got != 200 {
		t.Fatalf("long window = %d, %v; want 200", got, err)
	}
	if _, err := p.AvailPointTimeAfter(200, 10, 4); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted: %v", err)
	}
}

// pingPongCandidate is the candidate iterator Multi had before the
// fixpoint, kept as the differential reference: take the earliest next
// fitting change point of any requested member, re-check every member
// there, and on a miss advance past it by one point.
func pingPongCandidate(m *Multi, after, dur int64, ids []int32, units []int64) (int64, error) {
	t := after
	for {
		cand := int64(-1)
		for i, id := range ids {
			if x, err := m.PlannerByID(id).AvailPointTimeAfter(t, dur, units[i]); err == nil && (cand < 0 || x < cand) {
				cand = x
			}
		}
		if cand < 0 {
			return -1, ErrNoSpace
		}
		fit := true
		for i, id := range ids {
			fit = fit && m.PlannerByID(id).CanFit(cand, dur, units[i])
		}
		if fit {
			return cand, nil
		}
		t = cand
	}
}

// multiModel is a Multi of K members next to one brute-force per-tick
// reference per member.
type multiModel struct {
	m     *Multi
	ids   []int32
	refs  []*refModel
	spans [][]refSpan
}

const multiModelHorizon = 160

func newMultiModel(tb testing.TB, k int) *multiModel {
	tb.Helper()
	mm := &multiModel{ids: []int32{5, 0, 9}[:k]}
	totals := map[int32]int64{}
	for i, id := range mm.ids {
		total := int64(6 + 5*i)
		totals[id] = total
		mm.refs = append(mm.refs, newRef(total, multiModelHorizon))
		mm.spans = append(mm.spans, nil)
	}
	var err error
	if mm.m, err = NewMulti(0, multiModelHorizon, totals); err != nil {
		tb.Fatal(err)
	}
	return mm
}

// step applies one random operation drawn from next (next(n) is in
// [0, n)) and cross-checks the candidate iterator after queries.
func (mm *multiModel) step(tb testing.TB, op int, next func(n int) int) {
	tb.Helper()
	const horizon = multiModelHorizon
	i := next(len(mm.ids))
	p, ref := mm.m.PlannerByID(mm.ids[i]), mm.refs[i]
	switch k := next(10); {
	case k < 4:
		start := int64(next(horizon - 1))
		dur := int64(next(int(min(horizon-start, 40)))) + 1
		req := int64(next(int(ref.total)/2+2)) + 1
		wantOK := ref.availDuring(start, dur) >= req
		id, err := p.AddSpan(start, dur, req)
		if wantOK != (err == nil) {
			tb.Fatalf("op %d: member %d AddSpan(%d,%d,%d) err=%v, ref ok=%v", op, i, start, dur, req, err, wantOK)
		}
		if err == nil {
			ref.add(start, dur, req)
			mm.spans[i] = append(mm.spans[i], refSpan{id, start, dur, req})
		}
	case k < 6:
		if len(mm.spans[i]) == 0 {
			return
		}
		j := next(len(mm.spans[i]))
		s := mm.spans[i][j]
		if err := p.RemoveSpan(s.id); err != nil {
			tb.Fatalf("op %d: member %d RemoveSpan: %v", op, i, err)
		}
		ref.remove(s.start, s.dur, s.req)
		mm.spans[i] = append(mm.spans[i][:j], mm.spans[i][j+1:]...)
	case k < 7:
		delta := int64(next(7)) - 3
		if delta == 0 || ref.total+delta < 1 {
			delta = 2
		}
		err := mm.m.Update(mm.ids[i], delta)
		if wantOK := ref.firstNegative(ref.total+delta) < 0; wantOK != (err == nil) {
			tb.Fatalf("op %d: member %d Update(%d) on total %d: err=%v, ref ok=%v", op, i, delta, ref.total, err, wantOK)
		}
		if err == nil {
			ref.total += delta
		}
	default:
		mm.checkCandidates(tb, op, next)
	}
}

// checkCandidates walks a reservation-style candidate sequence for a
// random request over a non-empty subset of members and checks every step
// three ways: Multi.AvailPointTimeAfter, the ping-pong reference, and the
// brute-force model (the first union change point after `after` whose
// window every requested member fits).
func (mm *multiModel) checkCandidates(tb testing.TB, op int, next func(n int) int) {
	tb.Helper()
	const horizon = multiModelHorizon
	var ids []int32
	var units []int64
	var req []int
	for i := range mm.ids {
		if next(3) > 0 || (i == len(mm.ids)-1 && len(ids) == 0) {
			ids = append(ids, mm.ids[i])
			units = append(units, int64(next(int(mm.refs[i].total)+1))+1)
			req = append(req, i)
		}
	}
	dur := int64(next(30)) + 1
	after := int64(next(horizon)) - 5
	for step := 0; step < 6; step++ {
		points := map[int64]bool{}
		for _, i := range req {
			for _, pt := range refPoints(mm.spans[i]) {
				points[pt] = true
			}
		}
		want := int64(-1)
		for t := after + 1; t+dur <= horizon && want < 0; t++ {
			fit := points[t]
			for r, i := range req {
				fit = fit && mm.refs[i].availDuring(t, dur) >= units[r]
			}
			if fit {
				want = t
			}
		}
		got, err := mm.m.AvailPointTimeAfter(after, dur, ids, units)
		parent, perr := pingPongCandidate(mm.m, after, dur, ids, units)
		if (err == nil) != (perr == nil) || got != parent {
			tb.Fatalf("op %d step %d: AvailPointTimeAfter(%d,%d,%v,%v) = %d, %v; ping-pong %d, %v",
				op, step, after, dur, ids, units, got, err, parent, perr)
		}
		if want < 0 {
			if err == nil {
				tb.Fatalf("op %d step %d: AvailPointTimeAfter(%d,%d,%v,%v) = %d, ref says none", op, step, after, dur, ids, units, got)
			}
			return
		}
		if err != nil || got != want {
			tb.Fatalf("op %d step %d: AvailPointTimeAfter(%d,%d,%v,%v) = %d, %v; ref %d", op, step, after, dur, ids, units, got, err, want)
		}
		after = got
	}
}

// TestAvailPointTimeAfterAgainstReference cross-checks the candidate
// iterator of filters with one, two and three members — random member
// spans and pool resizes — against the brute-force per-tick model and the
// ping-pong iterator it replaced.
func TestAvailPointTimeAfterAgainstReference(t *testing.T) {
	for k := 1; k <= 3; k++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(17*seed + int64(k)))
			mm := newMultiModel(t, k)
			for op := 0; op < 1500; op++ {
				mm.step(t, op, rng.Intn)
			}
			if err := mm.m.CheckInvariants(); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
		}
	}
}

// FuzzMultiCandidates drives the same model from fuzz input: the first
// byte picks K, and every following pair of bytes is one random draw.
func FuzzMultiCandidates(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 9, 200, 7, 0, 0, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 5, 5, 5, 5, 1, 2, 3, 4, 9, 9, 9, 9})
	f.Add([]byte{1, 0, 1, 0, 2, 40, 40, 8, 8, 0, 7, 7, 7, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mm := newMultiModel(t, int(data[0]%3)+1)
		data = data[1:]
		next := func(n int) int {
			if len(data) < 2 {
				data = nil
				return 0
			}
			v := int(binary.LittleEndian.Uint16(data))
			data = data[2:]
			return v % n
		}
		for op := 0; len(data) > 0 && op < 400; op++ {
			mm.step(t, op, next)
		}
	})
}
