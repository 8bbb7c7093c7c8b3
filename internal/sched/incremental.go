package sched

import (
	"time"

	"fluxion/internal/traverser"
)

// This file implements the scheduling engine. Its decisions — which jobs
// start, when, and in what state — are those of the qmanager loop stated
// in reference_test.go (paper §3.4): every cycle cancel all reservations,
// then walk the priority queue front to back under the policy and the
// queue-depth bound, O(pending × match). The engine does only O(woken ×
// match) work in steady state:
//
//   - a blocked job carries the blocking signature of its last failed
//     attempt (traverser.BlockSig); it is re-attempted only when the
//     cycle's drained deltas intersect the signature (wakeup.go), when
//     its root-aggregate hint matures, or when the environment changed
//     in a way signatures cannot track (structural events, demotions).
//     A signature without a hint waits for a free under one of its
//     reasons, including the frees of on-schedule completions;
//   - standing EASY/conservative reservations are carried across cycles
//     instead of being cancelled and re-planned; a reservation is
//     dropped only when a delta touches its claim window (a completion
//     on schedule never does: its frees end at the clock), the wakeup
//     index overflowed, its queue position's policy branch changes, or
//     any demotion happened ahead of it in the cycle;
//   - a reservation whose start time matures (Alloc.At == now) converts
//     to running in place, with no match at all.
//
// Parity with the reference rests on a replay argument: an engine cycle
// is a resume of the reference's deterministic walk. A job's outcome at
// its queue position depends only on the running allocations and the
// decisions of jobs ahead of it (reservations behind it are cancelled
// upfront by the reference and never exist at its replay position).
// Skips are sound because the environment at a skipped job's position is
// never better than when its signature was captured: attempts only claim
// capacity, kept reservations re-create the reference's own re-plan, and
// everything that can add capacity — frees, structural changes,
// demotions — either wakes the job or clears its signature. Behind the
// first real match of a cycle no reservation stands: the classification
// walk demotes every one it reaches from there on, before any match runs,
// so the attempt sees exactly the reference's environment. Demotions in
// turn clear the signatures of every job behind them, since their muted
// cancel frees capacity signatures cannot see. A reservation is carried,
// or converted in place when it matures, only while its environment is
// the one it was planned in; otherwise it is re-matched, because a
// changed environment may give the reference's first fit other
// resources.

// dirKind is the per-job action a cycle's classification pass decides.
type dirKind uint8

const (
	// dirDepth keeps a job pending past the queue-depth bound, unmatched.
	dirDepth dirKind = iota
	// dirFail synthesizes the FCFS behind-blocked-head failure (the
	// reference does not match these either).
	dirFail
	// dirSkip keeps a blocked job pending without matching: its
	// signature proves the reference's attempt would fail.
	dirSkip
	// dirSkipIfBlocked resolves at process time: behind a blocked head
	// the signature justifies skipping, at the head the job must attempt
	// (its signature does not cover the reservation probe).
	dirSkipIfBlocked
	// dirKeep carries a standing reservation across the cycle.
	dirKeep
	// dirConvert starts a matured reservation (Alloc.At == now) in place.
	dirConvert
	// dirAttempt re-matches the job under the policy branch.
	dirAttempt
)

// directive is one classified queue entry, in queue order.
type directive struct {
	job  *Job
	kind dirKind
}

// blockState is the classification pass's three-valued view of the
// reference's `blocked` flag: attempts have unknown outcomes until process
// time, so the flag may be provably false, provably true, or unknown.
type blockState uint8

const (
	bNo blockState = iota
	bYes
	bUnknown
)

// scheduleIncremental runs one incremental cycle. The wakeup index has
// been drained into s.plan and the delta sink is muted for the duration.
func (s *Scheduler) scheduleIncremental() {
	now := s.now
	horizonEnd := s.tr.Graph().Base() + s.tr.Graph().Horizon()

	// Wake pre-pass: apply the cycle's deltas to every blocked job's
	// signature exactly once (wakes decrements shortfalls in place), and
	// test every standing reservation for invalidation. A job whose
	// attempt window would be horizon-clamped is never skipped or kept:
	// its effective duration shrinks as the clock advances, which the
	// signature's fixed window cannot model.
	for _, job := range s.pending {
		job.woken = false
		job.invalidated = false
		clamped := job.Spec == nil || job.Spec.Duration <= 0 ||
			now+job.Spec.Duration > horizonEnd
		switch job.State {
		case StatePending:
			if job.sigOK {
				if clamped {
					job.sigOK = false
				} else if s.plan.wakes(&job.sig, now) {
					// A relieved or matured signature no longer
					// certifies failure: the job attempts at every
					// cycle's reachable position until a failed
					// attempt captures a new one.
					job.woken = true
					job.sigOK = false
				}
			}
		case StateReserved:
			job.invalidated = clamped || s.plan.invalidates(job, now)
		}
	}

	// Classification pass: walk the queue in order and decide each job's
	// directive, tracking the provable blocked state and demoting
	// reservations the reference would not have re-created.
	resAhead := 0
	for _, job := range s.pending {
		if job.State == StateReserved {
			resAhead++
		}
	}

	dirs := s.directives[:0]
	attempts := 0
	blockedSt := bNo
	wakeAll := false // a demotion happened: signatures behind it are void
	planned := 0

	for _, job := range s.pending {
		switch job.State {
		case StatePending, StateReserved:
		default:
			continue // dropped from the queue, as in the reference
		}

		if s.queueDepth > 0 && planned >= s.queueDepth {
			if job.State == StateReserved {
				// The reference would not re-create a reservation past
				// the depth bound.
				resAhead--
				s.demote(job)
				wakeAll = true
			}
			if wakeAll {
				job.sigOK = false
			}
			dirs = append(dirs, directive{job: job, kind: dirDepth})
			continue
		}
		planned++

		if job.State == StateReserved {
			resAhead--
			// A reservation stands only while its position's environment
			// is the one it was planned in: same policy branch, no
			// demotion ahead, no delta into its window.
			branchOK := s.policy == Conservative || (s.policy == EASY && blockedSt == bNo)
			switch {
			case branchOK && !wakeAll && job.Alloc != nil && job.Alloc.At == now &&
				!s.plan.invalidates(job, now):
				// Matured: the reference's re-match at this position
				// succeeds at `now` on the same resources (an unchanged
				// environment picks the same first fit), so start it
				// without matching. A changed one — a status change, a
				// free into its window, frees the plan could not keep, a
				// demotion ahead — may pick other resources: re-match it
				// below. On-schedule completions are no change: their
				// frees end at `now`, so they reach only the plan's
				// ended list, which invalidates never reads.
				dirs = append(dirs, directive{job: job, kind: dirConvert})
				continue
			case branchOK && !wakeAll && !job.invalidated && job.Alloc != nil && job.Alloc.At > now:
				dirs = append(dirs, directive{job: job, kind: dirKeep})
				blockedSt = bYes
				continue
			default:
				s.demote(job)
				wakeAll = true
				// Re-classify as pending below.
			}
		}

		if blockedSt == bYes && (s.policy == FCFS || s.shedBackfill()) {
			// Behind a provably blocked head nothing matches under FCFS;
			// the shed-backfill ladder rung extends the same fail-fast to
			// EASY/conservative backfill probes.
			if wakeAll {
				job.sigOK = false
			}
			dirs = append(dirs, directive{job: job, kind: dirFail})
			continue
		}
		if wakeAll {
			job.sigOK = false
		}

		if job.sigOK {
			skip := false
			switch {
			case s.policy == FCFS:
				// Both FCFS branches fail under a valid signature
				// (behind a blocked head nothing matches; at the head
				// the signature certifies the immediate match fails).
				skip = true
				blockedSt = bYes
			case s.policy == EASY && blockedSt == bYes:
				skip = true // backfill branch: immediate match fails
			case job.sigReserve:
				// Conservative, or EASY at/possibly-at the head: the
				// signature covers the reservation probe too.
				skip = true
				blockedSt = bYes
			case s.policy == EASY && blockedSt == bUnknown:
				// Skippable behind a blocked head, must attempt at the
				// head; resolved when the process pass knows.
				dirs = append(dirs, directive{job: job, kind: dirSkipIfBlocked})
				continue
			}
			if skip {
				dirs = append(dirs, directive{job: job, kind: dirSkip})
				continue
			}
		}

		if bound := s.attemptBound(); bound > 0 && attempts >= bound {
			// Degraded bounded wake: the cycle's attempt budget is
			// spent. Keep the job pending untouched — valid reservations
			// ahead stay installed, so shedding causes no demotion churn.
			dirs = append(dirs, directive{job: job, kind: dirDepth})
			continue
		}

		// Attempt. The reference's match at this position runs with no
		// reservation behind it in the planners: every one that stands is
		// demoted as this walk reaches it (wakeAll makes none valid), all
		// before the process pass runs the attempt.
		if resAhead > 0 {
			resAhead = 0
			wakeAll = true
		}
		dirs = append(dirs, directive{job: job, kind: dirAttempt})
		attempts++
		if !(s.policy == EASY && blockedSt == bYes) {
			blockedSt = bUnknown
		}
	}
	s.directives = dirs

	// Process pass: execute the directives in queue order with the real
	// blocked flag, exactly mirroring the reference's outcome handling.
	blocked := false
	still := s.pending[:0]

	for _, d := range dirs {
		job := d.job
		switch d.kind {
		case dirDepth:
			still = append(still, job)
			continue
		case dirFail:
			blocked = true
			still = append(still, job)
			continue
		case dirSkip, dirKeep:
			blocked = true
			still = append(still, job)
			s.stats.SkippedJobs++
			continue
		case dirConvert:
			s.convert(job)
			continue
		case dirSkipIfBlocked:
			if blocked {
				still = append(still, job)
				s.stats.SkippedJobs++
				continue
			}
			// Head position: attempt.
		}

		if job.woken {
			s.stats.WokenJobs++
		}
		start := time.Now()
		alloc, err := s.resolveAttempt(job, blocked)
		job.MatchDuration += time.Since(start)
		switch {
		case job.poisoned:
			// Quarantine without touching `blocked`: jobs behind see the
			// schedule of a run where this job never existed.
			s.quarantinePoisoned(job)
		case err != nil:
			blocked = true
			still = append(still, job)
		case alloc.Reserved:
			s.reserve(job, alloc)
			blocked = true
			still = append(still, job)
		default:
			s.start(job, alloc)
		}
	}
	s.pending = still
}

// resolveAttempt turns one attempt directive into an allocation under the
// policy branch for its position, capturing a fresh blocking signature on
// failure.
func (s *Scheduler) resolveAttempt(job *Job, blocked bool) (*traverser.Allocation, error) {
	switch {
	case s.policy == FCFS:
		if blocked {
			// The signature (if any) survives: nothing matched, so it
			// still certifies the last real attempt's failure.
			return nil, traverser.ErrNoMatch
		}
		return s.matchAllocateSig(job, s.now)
	case blocked && s.shedBackfill():
		// Degraded: shed the backfill probe behind the blocked head.
		return nil, traverser.ErrNoMatch
	case s.policy == EASY && blocked:
		return s.matchAllocateSig(job, s.now)
	default: // Conservative always; EASY head
		return s.matchAllocateOrReserveSig(job, s.now)
	}
}

// convert starts a matured reservation in place: its planner spans are
// already exactly a running allocation's, so only the bookkeeping flips.
func (s *Scheduler) convert(job *Job) {
	delete(s.reserved, job.ID)
	job.Alloc.Reserved = false
	job.sigOK = false
	s.start(job, job.Alloc)
}

// demote cancels a standing reservation back to pending (the reference
// does this for every reservation at the top of each cycle). The cancel's
// frees are muted: within the cycle the queue walk itself accounts for
// them, and signatures behind the demotion point are cleared by wakeAll.
func (s *Scheduler) demote(job *Job) {
	s.jrec(Rec{Kind: RecUnreserve, ID: job.ID})
	_ = s.tr.Cancel(job.ID)
	delete(s.reserved, job.ID)
	job.State = StatePending
	job.Alloc = nil
	job.sigOK = false
}
