package sched

import (
	"errors"
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
// first match of a cycle no reservation stands: just before it the walk
// sweeps the rest of the queue and demotes every reservation still
// standing there, so that match and every later one see exactly the
// reference's environment. Demotions in turn clear the signatures of
// every job behind them, since their muted cancel frees capacity
// signatures cannot see. A reservation is carried, or converted in place
// when it matures, only while its environment is the one it was planned
// in; otherwise it is re-matched, because a changed environment may give
// the reference's first fit other resources.

// scheduleIncremental runs one cycle: one walk over the pending queue in
// order, carrying the reference's `blocked` flag. The wakeup index has
// been drained into s.plan and the delta sink is muted for the duration.
func (s *Scheduler) scheduleIncremental() {
	now := s.now
	horizonEnd := s.tr.Graph().Base() + s.tr.Graph().Horizon()
	blocked := false
	wakeAll := false // a demotion happened: signatures behind it are void
	swept := false   // no reservation stands behind the walk any more
	planned, attempts := 0, 0
	still := s.pending[:0]

	for i, job := range s.pending {
		switch job.State {
		case StatePending, StateReserved:
		default:
			continue // dropped from the queue, as in the reference
		}

		// Wake test, once per job per cycle whatever follows: wakes
		// decrements a signature's shortfalls in place. A job whose
		// attempt window would be horizon-clamped is never skipped or
		// kept: its effective duration shrinks as the clock advances,
		// which the signature's fixed window cannot model.
		clamped := job.Spec == nil || job.Spec.Duration <= 0 ||
			now+job.Spec.Duration > horizonEnd
		woken, invalidated := false, false
		switch {
		case job.State == StateReserved:
			invalidated = s.plan.invalidates(job, now)
		case job.sigOK && clamped:
			job.sigOK = false
		case job.sigOK && s.plan.wakes(&job.sig, now):
			// A relieved or matured signature no longer certifies
			// failure: the job attempts at every cycle's reachable
			// position until a failed attempt captures a new one.
			woken = true
			job.sigOK = false
		}

		if s.queueDepth > 0 && planned >= s.queueDepth {
			if job.State == StateReserved {
				// The reference would not re-create a reservation past
				// the depth bound.
				s.demote(job)
				wakeAll = true
			}
			if wakeAll {
				job.sigOK = false
			}
			still = append(still, job)
			continue
		}
		planned++
		// The policy branch at this position: allocate-or-reserve, or
		// allocate only (FCFS, and EASY behind a blocked head).
		reserve := s.policy == Conservative || (s.policy == EASY && !blocked)

		if job.State == StateReserved {
			// A reservation stands only while its position's environment
			// is the one it was planned in: same policy branch, no
			// demotion ahead, no delta into its window.
			switch {
			case reserve && !wakeAll && !invalidated && job.Alloc != nil && job.Alloc.At == now:
				// Matured: the reference's re-match at this position
				// succeeds at `now` on the same resources (an unchanged
				// environment picks the same first fit), so start it
				// without matching. A changed one — a status change, a
				// free into its window, frees the plan could not keep, a
				// demotion ahead — may pick other resources: re-match it
				// below. On-schedule completions are no change: their
				// frees end at `now`, so they reach only the plan's
				// ended list, which invalidates never reads.
				s.convert(job)
				continue
			case reserve && !wakeAll && !invalidated && !clamped && job.Alloc != nil && job.Alloc.At > now:
				blocked = true
				s.stats.SkippedJobs++
				still = append(still, job)
				continue
			default:
				s.demote(job)
				wakeAll = true
				// Handled as pending below.
			}
		}
		if wakeAll {
			job.sigOK = false
		}

		if blocked && (s.policy == FCFS || s.shedBackfill()) {
			// Behind a blocked head nothing matches under FCFS; the
			// shed-backfill ladder rung extends the same fail-fast to
			// EASY/conservative backfill probes.
			still = append(still, job)
			continue
		}

		// A valid signature certifies that this position's match fails:
		// the FCFS head's immediate match, an EASY backfill probe, and,
		// when it covers the reservation probe, the allocate-or-reserve
		// of the EASY head or of any conservative position. Only the
		// EASY head holding a backfill signature must attempt.
		if job.sigOK && (s.policy == FCFS || job.sigReserve || (s.policy == EASY && blocked)) {
			blocked = true
			s.stats.SkippedJobs++
			still = append(still, job)
			continue
		}

		if bound := s.attemptBound(); bound > 0 && attempts >= bound {
			// Degraded bounded wake: the cycle's attempt budget is
			// spent. Keep the job pending untouched — valid reservations
			// ahead stay installed, so shedding causes no demotion churn.
			still = append(still, job)
			continue
		}

		if !swept {
			// The reference's match at this position runs with no
			// reservation behind it in the planners, and neither may any
			// later match of the cycle: demote every one still standing
			// behind, in queue order, before the first attempt.
			swept = true
			for _, r := range s.pending[i+1:] {
				if r.State == StateReserved {
					s.demote(r)
					wakeAll = true
				}
			}
		}

		attempts++
		if woken {
			s.stats.WokenJobs++
		}
		start := time.Now()
		alloc, err := s.attempt(job, reserve)
		job.MatchDuration += time.Since(start)
		switch {
		case err == nil && !alloc.Reserved:
			s.start(job, alloc)
		case err == nil:
			s.reserve(job, alloc)
			blocked = true
			still = append(still, job)
		case errors.Is(err, ErrPoisoned):
			// The fence quarantined the job. `blocked` stays as it was:
			// jobs behind see the schedule of a run without it.
		default:
			blocked = true
			still = append(still, job)
		}
	}
	s.pending = still
}

// attempt matches job at the clock, allocate-or-reserve when reserve is
// set and allocate only otherwise, behind the defense fence when one is
// configured. It charges one match attempt and, on ErrNoMatch, arms the
// job's blocking signature for later cycles' skip test; sigReserve
// records that the signature also covers the reservation probe.
func (s *Scheduler) attempt(job *Job, reserve bool) (*traverser.Allocation, error) {
	s.stats.MatchAttempts++
	if s.defense != nil {
		return s.fencedMatch(job, reserve)
	}
	return s.match(job, reserve)
}

// match is attempt's unfenced body.
func (s *Scheduler) match(job *Job, reserve bool) (alloc *traverser.Allocation, err error) {
	cjs, err := s.compiledSpec(job)
	if err != nil {
		return nil, err
	}
	if reserve {
		alloc, err = s.tr.MatchAllocateOrReserveCompiledSig(job.ID, cjs, s.now, &job.sig)
	} else {
		alloc, err = s.tr.MatchAllocateCompiledSig(job.ID, cjs, s.now, &job.sig)
	}
	job.sigOK = errors.Is(err, traverser.ErrNoMatch)
	job.sigReserve = reserve
	return alloc, err
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
