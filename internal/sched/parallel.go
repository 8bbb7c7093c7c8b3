package sched

import (
	"fmt"
	"sync"
	"time"

	"fluxion/internal/traverser"
)

// This file implements the parallel match pipeline: each scheduling cycle,
// batches of pending jobs are speculatively matched against a read
// snapshot by a pool of traverser workers, then their allocations are
// committed strictly in queue order (priority, then submit/job order).
//
// The determinism contract is the commit stage, not the speculation stage:
// whatever the workers race to find, a job's allocation is only accepted
// in its queue position and only if the queue policy would have admitted
// the job there (FCFS stops at the first failure, EASY backfills only
// immediate fits behind the reserved head, Conservative reserves
// everything). A speculation that lost its capacity to an earlier commit
// fails Commit with ErrConflict and the job falls back to the sequential
// match path at its queue position, so the scheduling decisions — which
// jobs start, which block, which reserve — match the policy exactly.
// Every placement is validated against committed planner state before it
// becomes visible; an uncommitted speculation publishes nothing, so one
// that is not used is simply dropped.

// scheduleParallel plans the pending queue with a pool of speculative
// match workers, committing in queue order.
func (s *Scheduler) scheduleParallel() {
	// Classify the queue: jobs this cycle plans (in order) vs. jobs kept
	// pending untouched. keep preserves the original queue order for
	// everything that remains pending after the cycle.
	keep := make([]bool, len(s.pending))
	var work []*Job
	var workIdx []int
	planned := 0
	depth := s.planBound()
	for i, job := range s.pending {
		if job.State != StatePending {
			continue
		}
		if depth > 0 && planned >= depth {
			keep[i] = true
			continue
		}
		planned++
		work = append(work, job)
		workIdx = append(workIdx, i)
	}

	blocked := false // FCFS: stop at first failure; EASY: head reserved
	for off := 0; off < len(work); off += s.matchWorkers {
		end := off + s.matchWorkers
		if end > len(work) {
			end = len(work)
		}
		batch := work[off:end]
		if blocked && (s.policy == FCFS || s.shedBackfill()) {
			// Nothing behind a blocked FCFS head can start (and the shed
			// rung skips backfill probes); skip the speculation
			// round-trip entirely.
			for i := range batch {
				keep[workIdx[off+i]] = true
			}
			continue
		}
		specs := s.speculateBatch(batch)
		for i, job := range batch {
			spec := specs[i]
			if job.poisoned {
				// A worker's fence caught a panic (or deadline) for this
				// job: quarantine it without touching `blocked`, so jobs
				// behind see the schedule of a run without it.
				s.quarantinePoisoned(job)
				continue
			}
			if blocked && (s.policy == FCFS || s.shedBackfill()) {
				keep[workIdx[off+i]] = true
				continue
			}
			start := time.Now()
			alloc, err := s.commitOrFallback(job, spec, blocked)
			job.MatchDuration += time.Since(start)
			switch {
			case job.poisoned:
				// Poisoned during the fallback match or by the conflict
				// budget.
				s.quarantinePoisoned(job)
			case err != nil:
				blocked = true
				keep[workIdx[off+i]] = true
			case alloc.Reserved:
				s.reserve(job, alloc)
				blocked = true
				keep[workIdx[off+i]] = true
			default:
				s.start(job, alloc)
			}
		}
	}

	still := s.pending[:0]
	for i, job := range s.pending {
		if keep[i] {
			still = append(still, job)
		}
	}
	s.pending = still
}

// speculateBatch fans one batch out across the worker pool. The batch
// pins the graph's current MVCC epoch once; each worker speculatively
// matches its job at the current time against that immutable snapshot
// with no synchronization at all. Failed speculations are nil. Per-job
// match time is charged to MatchDuration after the barrier.
func (s *Scheduler) speculateBatch(batch []*Job) []*traverser.Allocation {
	specs := make([]*traverser.Allocation, len(batch))
	durs := make([]time.Duration, len(batch))
	ep := s.tr.PinEpoch()
	var wg sync.WaitGroup
	for i, job := range batch {
		wg.Add(1)
		go func(i int, job *Job) {
			defer wg.Done()
			start := time.Now()
			if a, err := s.matchSpeculate(job, s.now, ep); err == nil {
				specs[i] = a
			}
			durs[i] = time.Since(start)
		}(i, job)
	}
	wg.Wait()
	s.stats.MatchAttempts += int64(len(batch))
	for i, job := range batch {
		job.MatchDuration += durs[i]
	}
	return specs
}

// commitOrFallback turns a job's speculation into a committed allocation,
// or re-matches it sequentially under the queue-policy rules for its
// position (blocked carries the FCFS/EASY head state).
func (s *Scheduler) commitOrFallback(job *Job, spec *traverser.Allocation, blocked bool) (*traverser.Allocation, error) {
	if spec != nil {
		if err := s.tr.Commit(spec); err == nil {
			job.conflicts = 0
			return spec, nil
		}
		// Conflict: an earlier commit took the capacity. Fall through to
		// a fresh match at this queue position.
		if s.noteConflict(job) {
			return nil, fmt.Errorf("%w: job %d: %s", ErrPoisoned, job.ID, job.QuarantineMsg)
		}
	}
	switch {
	case s.policy == FCFS:
		if blocked {
			return nil, traverser.ErrNoMatch
		}
		return s.matchAllocate(job, s.now)
	case blocked && s.shedBackfill():
		return nil, traverser.ErrNoMatch
	case s.policy == EASY && blocked:
		return s.matchAllocate(job, s.now)
	default: // Conservative always; EASY head
		return s.matchAllocateOrReserve(job, s.now)
	}
}
