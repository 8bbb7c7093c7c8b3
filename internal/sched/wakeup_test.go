package sched

import (
	"fmt"
	"testing"

	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// endedFree is a one-unit free of type typ on the subtree [in, out) over
// the window [from, to).
func endedFree(in, out, typ int32, from, to int64) resgraph.Delta {
	return resgraph.Delta{Kind: resgraph.DeltaFree, TreeIn: in, TreeOut: out, TypeID: typ, Amount: 1, From: from, To: to}
}

// TestWakeupIndexEndedFrees: frees whose windows ended at the clock go to
// the ended list, merged only when type and window match and the subtrees
// abut; a kept free that expires before the drain joins them. The first
// hintless signature tested sorts the list by subtree; it relieves
// hintless signatures only, also through an entry that starts before the
// reason's subtree.
func TestWakeupIndexEndedFrees(t *testing.T) {
	var w wakeupIndex
	w.setNow(100)
	for _, d := range []resgraph.Delta{
		endedFree(30, 31, 1, 0, 100),
		endedFree(10, 11, 1, 0, 100),
		endedFree(11, 12, 1, 0, 100), // merges: same type and window, abuts
		endedFree(13, 14, 1, 0, 100), // a gap
		endedFree(14, 15, 2, 0, 100), // another type
		endedFree(15, 16, 2, 0, 90),  // another window
		endedFree(16, 17, 2, 0, 90),  // merges
		endedFree(20, 21, 1, 0, 150), // kept: reaches past the clock
	} {
		w.publish(d)
	}
	merged := func(d resgraph.Delta, out int32) resgraph.Delta {
		d.TreeOut, d.Amount = out, 2
		return d
	}
	want := []resgraph.Delta{
		endedFree(30, 31, 1, 0, 100),
		merged(endedFree(10, 11, 1, 0, 100), 12),
		endedFree(13, 14, 1, 0, 100),
		endedFree(14, 15, 2, 0, 100),
		merged(endedFree(15, 16, 2, 0, 90), 17),
	}
	if len(w.ended) != len(want) || len(w.frees) != 1 {
		t.Fatalf("ended %v, kept %v; want ended %v and one kept free", w.ended, w.frees, want)
	}
	for i := range want {
		if w.ended[i] != want[i] {
			t.Fatalf("ended[%d] = %+v, want %+v", i, w.ended[i], want[i])
		}
	}

	w.setNow(200) // the kept free expires before the cycle
	var p cyclePlan
	w.drain(&p)
	if len(p.frees) != 0 || len(p.ended) != 6 || p.overflow || p.endedOverflow {
		t.Fatalf("drained kept %v, ended %v", p.frees, p.ended)
	}

	sig := func(hintAt int64, reasons ...traverser.BlockReason) *traverser.BlockSig {
		return &traverser.BlockSig{At: 150, Dur: 100, HintAt: hintAt, Valid: true, Reasons: reasons}
	}
	// Type 1 under [10, 20) was freed 3 units: [10, 12) and [13, 14).
	if s := sig(150, traverser.BlockReason{TreeIn: 10, TreeOut: 20, TypeID: 1, Shortfall: 3}); !p.wakes(s, 200) {
		t.Error("3 ended units did not relieve a shortfall of 3")
	}
	for i := 1; i < len(p.ended); i++ {
		if p.ended[i-1].TreeIn > p.ended[i].TreeIn || p.reach[i] < p.ended[i].TreeOut {
			t.Fatalf("ended not sorted by subtree: %v, reach %v", p.ended, p.reach)
		}
	}
	s := sig(150, traverser.BlockReason{TreeIn: 10, TreeOut: 20, TypeID: 1, Shortfall: 4})
	if p.wakes(s, 200) || s.Reasons[0].Shortfall != 1 {
		t.Errorf("a shortfall of 4 woke or was not reduced to 1: %+v", s.Reasons[0])
	}
	// [11, 12) lies inside the merged [10, 12), which starts before it.
	if s := sig(150, traverser.BlockReason{TreeIn: 11, TreeOut: 12, TypeID: traverser.AnyType, Shortfall: 2}); !p.wakes(s, 200) {
		t.Error("the merged entry around the reason's subtree did not relieve it")
	}
	if s := sig(150, traverser.BlockReason{TreeIn: 17, TreeOut: 20, TypeID: 1, Shortfall: 1}); p.wakes(s, 200) {
		t.Error("a reason no ended free overlaps woke")
	}
	// A hint that has not matured holds: ended frees do not count.
	if s := sig(300, traverser.BlockReason{TreeIn: 10, TreeOut: 20, TypeID: 1, Shortfall: 1}); p.wakes(s, 200) {
		t.Error("an ended free woke a signature whose hint has not matured")
	}
}

// TestWakeupIndexEndedOverflow: more ended frees than the index keeps
// wake every signature without a hint, but not one whose hint holds, and
// they move no reservation, standing or maturing.
func TestWakeupIndexEndedOverflow(t *testing.T) {
	var w wakeupIndex
	w.setNow(100)
	for i := int32(0); i <= maxFreeDeltas; i++ {
		w.publish(endedFree(2*i, 2*i+1, 1, 0, 100))
	}
	var p cyclePlan
	w.drain(&p)
	if !p.endedOverflow || p.overflow || len(p.ended) != 0 {
		t.Fatalf("endedOverflow %v, overflow %v, %d ended kept", p.endedOverflow, p.overflow, len(p.ended))
	}
	reason := traverser.BlockReason{TreeIn: 5000, TreeOut: 5001, TypeID: 1, Shortfall: 1}
	hintless := &traverser.BlockSig{At: 100, Dur: 10, HintAt: 100, Valid: true, Reasons: []traverser.BlockReason{reason}}
	if !p.wakes(hintless, 100) {
		t.Error("an ended overflow did not wake a hintless signature")
	}
	hinted := &traverser.BlockSig{At: 100, Dur: 10, HintAt: 150, Valid: true, Reasons: []traverser.BlockReason{reason}}
	if p.wakes(hinted, 100) {
		t.Error("an ended overflow woke a signature whose hint holds")
	}
	for _, at := range []int64{100, 120} {
		if p.invalidates(&Job{Alloc: &traverser.Allocation{At: at, Duration: 50}}, 100) {
			t.Errorf("an ended overflow invalidated a reservation at %d", at)
		}
	}

	// In a live scheduler: job 2's reservation matures at 100, where
	// job 1 ends on time, and job 3's stands behind it.
	s := newSchedOpts(t, Conservative, 1, 2, 4)
	mustSubmit(t, s, 1, nodeJob(2, 4, 100))
	j2 := mustSubmit(t, s, 2, nodeJob(1, 4, 50))
	j3 := mustSubmit(t, s, 3, nodeJob(2, 4, 50))
	s.Schedule()
	if j2.State != StateReserved || j2.Alloc.At != 100 || j3.State != StateReserved || j3.Alloc.At != 150 {
		t.Fatalf("job 2 %v at %d, job 3 %v at %d; want reserved at 100 and 150",
			j2.State, j2.Alloc.At, j3.State, j3.Alloc.At)
	}
	if err := s.AdvanceTo(50); err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i <= maxFreeDeltas; i++ {
		s.wakeup.publish(endedFree(2*i, 2*i+1, 1, 0, 50))
	}
	attempts := s.Stats().MatchAttempts
	s.Step()
	if !s.plan.endedOverflow {
		t.Fatal("the cycle at 100 saw no ended overflow")
	}
	if got := s.Stats().MatchAttempts - attempts; got != 0 {
		t.Errorf("the cycle at 100 made %d match attempts, want 0", got)
	}
	if j2.State != StateRunning || j2.StartAt != 100 || j3.State != StateReserved || j3.Alloc.At != 150 {
		t.Errorf("job 2 %v at %d, job 3 %v at %d; want running at 100 and reserved at 150",
			j2.State, j2.StartAt, j3.State, j3.Alloc.At)
	}
}

// TestHintlessSignatureWaitsForRelief: an EASY backfill candidate refused
// on shape while the root filter admits it (the one free node is reserved
// for the head inside its window) is not re-attempted by a cycle that
// only adds an arrival, and the on-schedule completion of a node it was
// refused wakes it and starts it as backfill behind the next head, in
// lockstep with the reference. So does a
// cycle whose clock was advanced onto those completions before they fired
// (their spans left the window, but no free is published yet).
func TestHintlessSignatureWaitsForRelief(t *testing.T) {
	for _, onto := range []bool{false, true} {
		t.Run(fmt.Sprintf("advance-onto-completions=%v", onto), func(t *testing.T) {
			eng := newSchedOpts(t, EASY, 1, 4, 4)
			ref := newReference(t, EASY, 1, 4, 4, 0, DefaultMaxRetries)
			both := func(label string, run func(e engine)) {
				t.Helper()
				run(ref)
				run(eng)
				sameStates(t, label, ref, eng)
			}
			submit := func(e engine, id, nodes, dur int64) {
				if _, err := e.SubmitPriority(id, nodeJob(nodes, 4, dur), 0); err != nil {
					t.Fatal(err)
				}
			}
			both("submitted", func(e engine) {
				submit(e, 1, 1, 50)  // node0 until 50
				submit(e, 2, 1, 100) // node1 until 100
				submit(e, 3, 2, 100) // node2, node3 until 100
				submit(e, 4, 2, 100) // head: reserved at 100 on node0, node1
				submit(e, 5, 4, 100) // the head once job 4 starts
				submit(e, 6, 1, 100) // the backfill candidate
				e.Schedule()
			})
			both("job 1 ended", func(e engine) { e.Step() })
			j4, _ := eng.Job(4)
			cand, _ := eng.Job(6)
			if eng.Now() != 50 || j4.State != StateReserved || j4.Alloc.At != 100 || cand.State != StatePending {
				t.Fatalf("at %d: head %v at %d, candidate %v; want the head reserved at 100 and the candidate pending at 50",
					eng.Now(), j4.State, j4.Alloc.At, cand.State)
			}
			if !cand.sigOK || cand.sig.HintAt != cand.sig.At {
				t.Fatalf("candidate signature valid=%v at %d hint %d, want a valid hintless one",
					cand.sigOK, cand.sig.At, cand.sig.HintAt)
			}

			before := eng.Stats()
			both("arrival", func(e engine) {
				if err := e.AdvanceTo(60); err != nil {
					t.Fatal(err)
				}
				submit(e, 7, 1, 100)
				e.Schedule()
			})
			after := eng.Stats()
			if got := after.MatchAttempts - before.MatchAttempts; got != 1 {
				t.Errorf("the arrival cycle made %d match attempts, want 1 (the arrival's own)", got)
			}
			if got := after.WokenJobs - before.WokenJobs; got != 0 {
				t.Errorf("the arrival cycle woke %d blocked jobs, want 0", got)
			}

			both("jobs 2 and 3 end", func(e engine) {
				if !onto {
					e.Step()
					return
				}
				if err := e.AdvanceTo(100); err != nil {
					t.Fatal(err)
				}
				e.Schedule()
			})
			if cand.State != StateRunning || cand.StartAt != 100 {
				t.Fatalf("candidate %v from %d, want running from 100", cand.State, cand.StartAt)
			}
			if eng.Stats().WokenJobs == after.WokenJobs {
				t.Error("the completions started the candidate without waking it")
			}
			for ref.HasEvents() {
				both("drain", func(e engine) { e.Step() })
			}
			sameDecisions(t, "drained", ref, eng)
		})
	}
}
