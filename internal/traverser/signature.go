package traverser

import (
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
)

// This file implements blocking signatures: a compact record of *why* a
// match attempt failed, captured as the traversal unwinds. A signature is
// the bridge between one failed match and the capacity deltas published by
// the store (resgraph.Delta): an event-driven scheduler re-attempts a
// blocked job only when a delta intersects its signature, instead of
// re-matching the whole queue every cycle (see internal/sched).
//
// Soundness contract (no under-waking): every descent path the matcher
// prunes or fails records a reason naming the subtree interval, the
// resource type, and the shortfall that rejected it. A job can newly match
// only if its *first* failing constraint is relieved, which requires
// capacity of a matching type freed inside a recorded subtree — or a
// structural change, which voids all signatures. Spurious wake-ups are
// always safe: the woken job just fails again and re-captures.

// AnyType is the wildcard TypeID in a BlockReason: the constraint is
// relieved by freed capacity of any resource type in the subtree (used
// where the matcher rejects on a vertex's own pool, e.g. exclusivity).
const AnyType int32 = -1

// maxSigReasons bounds a signature's reason list. Beyond it the signature
// overflows and the job conservatively wakes on any free.
const maxSigReasons = 96

// BlockReason is one recorded rejection: the pruning vertex's containment
// pre-order interval, the interned resource type that fell short (or
// AnyType), and how many units were missing. A resgraph.DeltaFree
// intersects the reason when its vertex interval overlaps, its type
// matches, and — accumulated across deltas — it covers the shortfall.
type BlockReason struct {
	TreeIn, TreeOut int32
	TypeID          int32
	Shortfall       int64
}

// BlockSig is the blocking signature of one failed match attempt.
type BlockSig struct {
	// At and Dur frame the attempt's time window [At, At+Dur).
	At, Dur int64
	// HintAt is the root filter's earliest-fit hint (AvailTimeFirst over
	// the request's tracked totals): before HintAt the root aggregates
	// provably cannot host the request, so time alone cannot unblock the
	// job. HintAt == At means the root aggregates fit and the shape did
	// not: only a free under a reason (including a span that ended) or
	// a structural change can unblock the job.
	HintAt int64
	// Valid is set by a capture; a zero signature must wake always.
	Valid bool
	// Overflow marks a truncated reason list: any free may be relevant.
	Overflow bool
	// WakeAnyFree marks failures the signature cannot localize (e.g. a
	// reservation probe exhausted its depth): wake on any free.
	WakeAnyFree bool
	// Reasons is the recorded rejection set, deduplicated by
	// (TreeIn, TypeID) keeping the smallest shortfall. The holder may
	// decrement shortfalls as matching frees arrive; a reason reaching
	// zero wakes the job.
	Reasons []BlockReason
}

// reset re-arms the signature for a fresh capture at window [at, at+dur).
func (s *BlockSig) reset(at, dur int64) {
	s.At, s.Dur = at, dur
	s.HintAt = at
	s.Valid = true
	s.Overflow = false
	s.WakeAnyFree = false
	s.Reasons = s.Reasons[:0]
}

// record adds one rejection reason, deduplicating by (TreeIn, TypeID) and
// keeping the smaller shortfall (relieving the easier instance may already
// let the job through, so waking at the minimum is the sound side).
func (s *BlockSig) record(in, out, typeID int32, shortfall int64) {
	if s.Overflow {
		return
	}
	if shortfall < 1 {
		shortfall = 1
	}
	for i := range s.Reasons {
		r := &s.Reasons[i]
		if r.TreeIn == in && r.TypeID == typeID {
			if shortfall < r.Shortfall {
				r.Shortfall = shortfall
			}
			return
		}
	}
	if len(s.Reasons) >= maxSigReasons {
		s.Overflow = true
		return
	}
	s.Reasons = append(s.Reasons, BlockReason{TreeIn: in, TreeOut: out, TypeID: typeID, Shortfall: shortfall})
}

// noteVertex records a rejection at vertex v.
func (s *BlockSig) noteVertex(v *resgraph.Vertex, typeID int32, shortfall int64) {
	in, out := v.TreeInterval()
	s.record(in, out, typeID, shortfall)
}

// captureHint fills s.HintAt with the root filter's earliest time the
// request's tracked totals fit, clamped to at (at itself when the filter
// tracks nothing useful or a probe fails — i.e. "no hint, wake always").
func (t *Traverser) captureHint(cjs *jobspec.Compiled, at, dur int64, s *BlockSig) {
	hint := at
	rf := t.root.Filter()
	if rf == nil {
		s.HintAt = at
		return
	}
	for _, tc := range cjs.Totals() {
		if tc.Units <= 0 {
			continue
		}
		p := rf.PlannerByID(tc.ID)
		if p == nil {
			continue
		}
		h, err := p.AvailTimeFirst(at, dur, tc.Units)
		if err != nil {
			// No time fits within the horizon; near the horizon edge a
			// later (clamped-shorter) window may still fit, so the hint
			// cannot safely postpone the job.
			s.HintAt = at
			return
		}
		if h > hint {
			hint = h
		}
	}
	s.HintAt = hint
}

// publishClaims emits a DeltaClaim per consuming vertex of alloc.
// Reservation creation is the cold path, so per-vertex publication is
// affordable there; immediate allocations stay silent (a claim can never
// unblock a waiting job, and the scheduling loop that made it already
// accounts for it in queue order).
func (t *Traverser) publishClaims(alloc *Allocation) {
	g := t.g
	for _, va := range alloc.Vertices {
		if va.Units > 0 {
			g.PublishSpanDelta(resgraph.DeltaClaim, va.V, va.Units, alloc.At, alloc.At+alloc.Duration)
		}
	}
}

// publishFrees emits a DeltaFree per consuming vertex of alloc, after its
// spans were removed.
func (t *Traverser) publishFrees(alloc *Allocation) {
	g := t.g
	for _, va := range alloc.Vertices {
		if va.Units > 0 {
			g.PublishSpanDelta(resgraph.DeltaFree, va.V, va.Units, alloc.At, alloc.At+alloc.Duration)
		}
	}
}
