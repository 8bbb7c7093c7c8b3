package sched

import (
	"cmp"
	"slices"
	"sync"

	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// This file implements the wakeup index: the scheduler's inbox for
// capacity deltas published by the resource store (resgraph.Delta). Each
// scheduling cycle drains the inbox into a cyclePlan and tests every
// blocked job's signature (traverser.BlockSig) against the accumulated
// deltas — only intersecting jobs are re-attempted, the rest are skipped
// wholesale (see incremental.go).
//
// Delta handling is deliberately conservative:
//
//   - structural deltas (topology or status changes) void every standing
//     signature and reservation: everything wakes;
//   - a free whose window has already ended at the scheduler's clock
//     (To <= now) goes to a second list, `ended`: an on-schedule
//     completion frees exactly such a window. It moves no reservation,
//     but it is what relieves a job whose last attempt was refused the
//     busy vertices, so it wakes signatures that have no root-aggregate
//     hint (drain moves frees that expired while buffered there too);
//   - both lists are bounded. Overflow of the kept list degrades the
//     cycle to a full wake; overflow of `ended` wakes every signature
//     without a hint and touches no reservation. Only frees reaching past
//     `now` count towards the first, so its overflow needs a burst of
//     evictions or cancels, never a big job ending on time. Consecutive
//     ended frees of one type and window whose subtrees abut (a node's
//     cores, freed in traversal order) merge into one entry, which can
//     only over-wake;
//   - claim deltas are ignored: new claims can never unblock a job, and
//     the cycle that created them already accounted for them in queue
//     order.

// maxFreeDeltas bounds each buffered free list. Beyond it the index
// degrades to waking everything the list could wake, which is always
// sound.
const maxFreeDeltas = 512

// wakeupIndex buffers capacity deltas between scheduling cycles. publish
// is called synchronously from the resource store, possibly under graph
// locks and from goroutines other than the scheduler's (a fault injector's
// MarkDown, say), so it must stay lock-cheap and must not call back into
// the store.
type wakeupIndex struct {
	mu            sync.Mutex
	now           int64 // the scheduler's clock (setNow); it never moves back
	muted         bool
	structural    bool
	overflow      bool // frees were dropped: wake as if structural
	endedOverflow bool // ended frees were dropped: wake every hintless signature
	frees         []resgraph.Delta
	ended         []resgraph.Delta
}

// setNow moves the index's clock with the scheduler's.
func (w *wakeupIndex) setNow(now int64) {
	w.mu.Lock()
	w.now = now
	w.mu.Unlock()
}

// publish is the resgraph.SetDeltaSink target.
func (w *wakeupIndex) publish(d resgraph.Delta) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.muted {
		// The scheduler's own cycle is running: its cancels and matches
		// are already ordered by the queue walk, so self-deltas carry no
		// wakeup information (and would otherwise cascade forever).
		return
	}
	switch d.Kind {
	case resgraph.DeltaStructural:
		w.structural = true
		w.frees = w.frees[:0]
		w.ended = w.ended[:0]
	case resgraph.DeltaFree:
		if w.structural || w.overflow {
			return // already waking everything
		}
		if d.To <= w.now {
			w.keepEnded(d)
			return
		}
		if len(w.frees) >= maxFreeDeltas {
			w.overflow = true
			w.frees = w.frees[:0]
			return
		}
		w.frees = append(w.frees, d)
	case resgraph.DeltaClaim:
		// Claims cannot unblock anyone.
	}
}

// keepEnded adds a free whose window has ended to the ended list, merging
// it into the last entry when both have the same type and window and its
// subtree starts where that entry's ends. Callers hold w.mu.
func (w *wakeupIndex) keepEnded(d resgraph.Delta) {
	if w.endedOverflow {
		return
	}
	if n := len(w.ended); n > 0 {
		last := &w.ended[n-1]
		if last.TypeID == d.TypeID && last.From == d.From && last.To == d.To && last.TreeOut == d.TreeIn {
			last.TreeOut = d.TreeOut
			last.Amount += d.Amount
			return
		}
	}
	if len(w.ended) >= maxFreeDeltas {
		w.endedOverflow = true
		w.ended = w.ended[:0]
		return
	}
	w.ended = append(w.ended, d)
}

// forceFullWake marks the index structural so the next cycle re-attempts
// every job and re-plans every reservation (used after checkpoint resume,
// when signatures and buffered deltas were lost with the process).
func (w *wakeupIndex) forceFullWake() {
	w.mu.Lock()
	w.structural = true
	w.frees = w.frees[:0]
	w.ended = w.ended[:0]
	w.mu.Unlock()
}

// mute toggles self-delta suppression around a scheduling cycle.
func (w *wakeupIndex) mute(on bool) {
	w.mu.Lock()
	w.muted = on
	w.mu.Unlock()
}

// drain moves the buffered deltas into plan and resets the index. A kept
// free that expired since it was published (the clock moved between
// publish and the cycle: AdvanceTo, or a Step whose cycle follows frees
// published at an earlier instant) moves to the ended list, where publish
// puts the frees that were past on arrival.
func (w *wakeupIndex) drain(plan *cyclePlan) {
	w.mu.Lock()
	defer w.mu.Unlock()
	plan.structural = w.structural
	plan.frees = plan.frees[:0]
	for _, f := range w.frees {
		if f.To > w.now {
			plan.frees = append(plan.frees, f)
		} else {
			w.keepEnded(f)
		}
	}
	plan.overflow = w.overflow
	plan.endedOverflow = w.endedOverflow
	plan.ended, w.ended = w.ended, plan.ended[:0]
	plan.sorted = false
	w.structural = false
	w.overflow = false
	w.endedOverflow = false
	w.frees = w.frees[:0]
}

// cyclePlan is one cycle's drained delta view. overflow means more than
// maxFreeDeltas frees reaching past the clock were published and none was
// kept, so every signature and reservation is treated as hit.
// endedOverflow is the same for frees whose windows had ended, and wakes
// only signatures without a hint. Once sorted, ended is in TreeIn order
// and reach[i] is the largest TreeOut among ended[:i+1]; only a hintless
// signature reads them, so a cycle without one never sorts.
type cyclePlan struct {
	structural    bool
	overflow      bool
	endedOverflow bool
	sorted        bool
	frees         []resgraph.Delta
	ended         []resgraph.Delta
	reach         []int32
}

// sortEnded sorts the ended frees by subtree start and rebuilds reach.
func (p *cyclePlan) sortEnded() {
	p.sorted = true
	slices.SortFunc(p.ended, func(a, b resgraph.Delta) int { return cmp.Compare(a.TreeIn, b.TreeIn) })
	p.reach = p.reach[:0]
	var reach int32
	for i := range p.ended {
		reach = max(reach, p.ended[i].TreeOut)
		p.reach = append(p.reach, reach)
	}
}

// wakes decides whether a blocked job must be re-attempted at `now`,
// decrementing the signature's shortfalls in place by the matching frees
// (accumulation across cycles: a shortfall relieved half now and half in
// a later cycle still wakes). Call it exactly once per job per cycle.
//
// A signature with a hint (HintAt > At) wakes when the hint matures or a
// kept free relieves it. One without (HintAt == At: the root aggregates
// fit, the shape did not) waits for a kept or ended free to relieve it.
// That is sound because capacity in the attempt window rises only by a
// free, a structural change or a demotion (which clears the signatures
// behind it): a span leaves the window on the left only by ending, and
// every ending publishes a free. So with no relieving free, every
// vertex's availability over [now, now+Dur) is at most what the failed
// attempt saw over [At, At+Dur).
func (p *cyclePlan) wakes(sig *traverser.BlockSig, now int64) bool {
	if p.structural || p.overflow || !sig.Valid {
		return true
	}
	hintless := sig.HintAt == sig.At
	switch {
	case hintless && (sig.WakeAnyFree || p.endedOverflow):
		// A failed reservation probe depends on the clock, and an
		// overflowed ended list may have lost the relieving free.
		return true
	case !hintless && now >= sig.HintAt:
		// The root-aggregate hint matured: the clock alone may now admit
		// the job.
		return true
	}
	ended := p.ended
	if !hintless {
		ended = nil // before its hint the root aggregates still refuse
	}
	if len(p.frees) == 0 && len(ended) == 0 {
		return false
	}
	if sig.Overflow || sig.WakeAnyFree {
		return true
	}
	woken := false
	for _, f := range p.frees {
		// The attempt window at `now` is [now, now+d(now)); d(now) <=
		// d(At) for deadline-clamped durations, so testing against the
		// captured Dur only widens the overlap — sound side.
		if f.From >= now+sig.Dur {
			continue
		}
		for i := range sig.Reasons {
			r := &sig.Reasons[i]
			if r.Shortfall <= 0 {
				continue
			}
			if f.TypeID != r.TypeID && r.TypeID != traverser.AnyType {
				continue
			}
			if f.TreeIn < r.TreeOut && r.TreeIn < f.TreeOut {
				r.Shortfall -= f.Amount
				if r.Shortfall <= 0 {
					woken = true
				}
			}
		}
	}
	if woken || len(ended) == 0 {
		return woken
	}
	if !p.sorted {
		p.sortEnded()
	}
	for i := range sig.Reasons {
		r := &sig.Reasons[i]
		// Entries from hi on start at or past the reason's subtree end;
		// walking down, none at or before j reaches into it once
		// reach[j] <= r.TreeIn.
		hi, _ := slices.BinarySearchFunc(ended, r.TreeOut, func(f resgraph.Delta, out int32) int {
			return cmp.Compare(f.TreeIn, out)
		})
		for j := hi - 1; j >= 0 && p.reach[j] > r.TreeIn; j-- {
			f := &ended[j]
			if f.TreeOut <= r.TreeIn || (f.TypeID != r.TypeID && r.TypeID != traverser.AnyType) {
				continue
			}
			r.Shortfall -= f.Amount
			if r.Shortfall <= 0 {
				return true
			}
		}
	}
	return false
}

// invalidates decides whether a standing reservation must be dropped and
// re-planned: any structural change, a start that slipped into the past,
// a kept free overlapping the reservation's window — earlier-starting
// capacity may now admit the job sooner — or frees the plan did not keep.
// Ended frees and their overflow never count: capacity gone again by
// `now` cannot move a plan made for `now` or later.
// Frees are not type-filtered: shared structural grants (racks, switches)
// consumed by the reservation are not in the jobspec's totals.
// Conservatively re-planning is always sound.
func (p *cyclePlan) invalidates(job *Job, now int64) bool {
	if p.structural || p.overflow || job.Alloc == nil {
		return true
	}
	if job.Alloc.At < now {
		// The reservation's start slipped into the past without maturing
		// (clock advanced past it): force a re-plan.
		return true
	}
	resEnd := job.Alloc.At + job.Alloc.Duration
	for _, f := range p.frees {
		if f.From < resEnd {
			return true
		}
	}
	return false
}
