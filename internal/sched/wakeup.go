package sched

import (
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
//     (To <= now) is dropped on arrival: an on-schedule completion frees
//     exactly such a window, and capacity gone again by `now` can relieve
//     no attempt and move no reservation (drain applies the same rule to
//     frees that expired while buffered);
//   - the list of frees that are kept is bounded; on overflow the cycle
//     degrades to a full wake rather than dropping deltas. Only frees
//     reaching past `now` count, so an overflow needs a burst of
//     evictions or cancels, never a big job ending on time;
//   - claim deltas are ignored: new claims can never unblock a job, and
//     the cycle that created them already accounted for them in queue
//     order.

// maxFreeDeltas bounds the buffered free list. Beyond it the index
// degrades to a full wake, which is always sound.
const maxFreeDeltas = 512

// wakeupIndex buffers capacity deltas between scheduling cycles. publish
// is called synchronously from the resource store, possibly under graph
// locks and from goroutines other than the scheduler's (a fault injector's
// MarkDown, say), so it must stay lock-cheap and must not call back into
// the store.
type wakeupIndex struct {
	mu         sync.Mutex
	now        int64 // the scheduler's clock (setNow); it never moves back
	muted      bool
	structural bool
	overflow   bool // frees were dropped: wake as if structural
	frees      []resgraph.Delta
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
	case resgraph.DeltaFree:
		if w.structural || w.overflow || d.To <= w.now {
			return // already waking everything, or already past
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

// forceFullWake marks the index structural so the next cycle re-attempts
// every job and re-plans every reservation (used after checkpoint resume,
// when signatures and buffered deltas were lost with the process).
func (w *wakeupIndex) forceFullWake() {
	w.mu.Lock()
	w.structural = true
	w.frees = w.frees[:0]
	w.mu.Unlock()
}

// mute toggles self-delta suppression around a scheduling cycle.
func (w *wakeupIndex) mute(on bool) {
	w.mu.Lock()
	w.muted = on
	w.mu.Unlock()
}

// drain moves the buffered deltas into plan and resets the index. Frees
// entirely in the past (To <= now) are dropped: capacity that is already
// gone again by `now` — or that was an on-schedule completion, whose
// time-based effect the signature's HintAt covers — cannot relieve an
// immediate attempt at `now`. publish already dropped the frees that were
// past when they arrived; this catches those that expired since, when the
// clock moved between publish and the cycle (AdvanceTo, or a Step whose
// cycle follows frees published at an earlier instant).
func (w *wakeupIndex) drain(plan *cyclePlan) {
	w.mu.Lock()
	defer w.mu.Unlock()
	plan.structural = w.structural
	plan.overflow = w.overflow
	plan.frees = plan.frees[:0]
	for _, f := range w.frees {
		if f.To > w.now {
			plan.frees = append(plan.frees, f)
		}
	}
	w.structural = false
	w.overflow = false
	w.frees = w.frees[:0]
}

// cyclePlan is one cycle's drained delta view. overflow means more than
// maxFreeDeltas frees reaching past the clock were published and none was
// kept, so every signature and reservation is treated as hit.
type cyclePlan struct {
	structural bool
	overflow   bool
	frees      []resgraph.Delta
}

// empty reports whether the plan carries no wake information at all.
func (p *cyclePlan) empty() bool {
	return !p.structural && !p.overflow && len(p.frees) == 0
}

// wakes decides whether a blocked job must be re-attempted at `now`,
// decrementing the signature's shortfalls in place by the matching frees
// (accumulation across cycles: a shortfall relieved half now and half in
// a later cycle still wakes). Call it exactly once per job per cycle.
func (p *cyclePlan) wakes(sig *traverser.BlockSig, now int64) bool {
	if p.structural || p.overflow || !sig.Valid {
		return true
	}
	if now >= sig.HintAt {
		// The root-aggregate hint matured: the clock alone may now admit
		// the job (on-schedule completions shift the attempt window past
		// their spans without changing future availability, so no free
		// survives drain to signal them). HintAt == At means the hint had
		// no discriminating power — the job then attempts every cycle.
		return true
	}
	if len(p.frees) == 0 {
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
	return woken
}

// invalidates decides whether a standing reservation must be dropped and
// re-planned: any structural change, a start that slipped into the past,
// a kept free overlapping the reservation's window — earlier-starting
// capacity may now admit the job sooner — or frees the plan did not keep.
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
