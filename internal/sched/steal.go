package sched

import (
	"fmt"

	"fluxion/internal/traverser"
)

// This file is the scheduler side of sharded work stealing
// (internal/shard): a router that owns several schedulers needs to pull
// a job out of one loop and resubmit it to another. Withdraw is that
// hook — and doubles as a general job-removal API (cancel a queued job,
// drop an unsatisfiable record, reset a benchmark harness).

// PendingJobs returns the jobs currently in StatePending, in queue
// order — the candidates a rebalancer may steal (reserved jobs hold
// planner claims and stay put). The returned slice is a snapshot.
func (s *Scheduler) PendingJobs() []*Job {
	var out []*Job
	for _, j := range s.pending {
		if j.State == StatePending {
			out = append(out, j)
		}
	}
	return out
}

// Withdraw removes a job from the scheduler entirely and returns it:
// pending jobs leave the queue, reserved jobs drop their reservation,
// running jobs release their allocation (the completion event goes
// stale), terminal jobs just leave the table. The returned Job keeps its
// Spec, Submit, Priority, and Retries so a caller can resubmit it
// elsewhere; graph-specific state (the compiled spec, the blocking
// signature, the allocation) is cleared.
func (s *Scheduler) Withdraw(id int64) (*Job, error) {
	job := s.jobs[id]
	if job == nil {
		return nil, fmt.Errorf("%w: %d", traverser.ErrUnknownJob, id)
	}
	s.jBegin()
	defer s.jEnd()
	s.jrec(Rec{Kind: RecWithdraw, ID: id})
	if job.Alloc != nil || job.State == StateRunning || job.State == StateReserved {
		_ = s.tr.Cancel(id)
	}
	s.unqueue(job)
	delete(s.reserved, id)
	delete(s.jobs, id)
	job.State = StatePending
	job.Alloc = nil
	job.compiled = nil
	job.sigOK = false
	job.sigReserve = false
	job.poisoned = false
	job.Quarantine = QuarantineNone
	job.QuarantineMsg = ""
	return job, nil
}
