package sched

// This file is the scheduler half of the durability subsystem
// (internal/wal, internal/durable): a typed effect journal. When a
// journal sink is attached, every state-mutating operation emits one
// flat record describing its effect — submit, start, reserve, convert,
// demote, complete, requeue, node down/up, event push/pop, clock moves —
// *before* applying the mutation (write-ahead discipline; the sink
// appends to a WAL). Apply replays a record stream over a scheduler
// restored from the paired checkpoint, reproducing the exact state
// without re-running any matching.
//
// Records group into atomic command units: jBegin/jEnd bracket every
// public entry point, and when the outermost bracket closes with records
// emitted, a RecCommit marks the boundary. WAL recovery discards records
// past the last commit, so a crash always recovers to a driver-step
// boundary — never into the middle of a scheduling cycle or an eviction
// cascade. Multi-call driver steps (submit a batch, then Schedule) wrap
// themselves in Atomic to widen the unit.

import (
	"container/heap"
	"errors"
	"fmt"

	"fluxion/internal/jobspec"
	"fluxion/internal/traverser"
)

// ErrReplay is wrapped by all journal replay failures.
var ErrReplay = errors.New("sched: journal replay failed")

// RecKind discriminates journal records.
type RecKind uint8

// Journal record kinds. The zero value is invalid so a zeroed frame
// cannot masquerade as a real record.
const (
	RecInvalid RecKind = iota
	// RecSubmit records a job submission (ID, At=submit time, Priority,
	// Unsat, Spec). Unsatisfiable submissions are journaled too: the job
	// table includes them.
	RecSubmit
	// RecCycle records one scheduling cycle (the Cycles counter is
	// checkpointed state).
	RecCycle
	// RecStart records a pending job starting: At is the allocation
	// time, Duration its length, Grants the placement to reinstall.
	RecStart
	// RecReserve records a future reservation (same payload as RecStart).
	RecReserve
	// RecConvert records a matured reservation starting in place; the
	// allocation is already installed, only bookkeeping flips.
	RecConvert
	// RecUnreserve records a reservation demoted back to pending (its
	// traverser claim is cancelled; the job keeps its queue position).
	RecUnreserve
	// RecDrop records a reservation evicted by a node failure (the
	// traverser claim is already gone; job-side state resets).
	RecDrop
	// RecComplete records a running job finishing.
	RecComplete
	// RecRequeue records a running job evicted by a node failure and
	// requeued (Retries is the post-eviction count, LostCore the
	// core-seconds charged).
	RecRequeue
	// RecFail is RecRequeue for a job that exhausted its retries.
	RecFail
	// RecDown records marking the subtree at Path down.
	RecDown
	// RecUp records marking the subtree at Path up.
	RecUp
	// RecEvent records pushing a future node event (At, Down, Path).
	RecEvent
	// RecEventPop records dispatching (removing) a node event.
	RecEventPop
	// RecClock records the simulated clock moving to At.
	RecClock
	// RecCommit marks the end of an atomic command unit.
	RecCommit
	// RecQuarantine records a job moved to StateQuarantined by the
	// defense layer (Retries carries the QuarantineReason code, Path the
	// human-readable message), so quarantine survives crash recovery.
	RecQuarantine
	// RecUnquarantine records a quarantined job released back to the
	// pending queue.
	RecUnquarantine
	// RecWithdraw records a job removed from the scheduler entirely
	// (sharded work stealing, or an explicit cancel of a queued job);
	// any traverser claim is released.
	RecWithdraw
)

func (k RecKind) String() string {
	switch k {
	case RecSubmit:
		return "submit"
	case RecCycle:
		return "cycle"
	case RecStart:
		return "start"
	case RecReserve:
		return "reserve"
	case RecConvert:
		return "convert"
	case RecUnreserve:
		return "unreserve"
	case RecDrop:
		return "drop"
	case RecComplete:
		return "complete"
	case RecRequeue:
		return "requeue"
	case RecFail:
		return "fail"
	case RecDown:
		return "down"
	case RecUp:
		return "up"
	case RecEvent:
		return "event"
	case RecEventPop:
		return "event-pop"
	case RecClock:
		return "clock"
	case RecCommit:
		return "commit"
	case RecQuarantine:
		return "quarantine"
	case RecUnquarantine:
		return "unquarantine"
	case RecWithdraw:
		return "withdraw"
	default:
		return "invalid"
	}
}

// Rec is one journal record: a flat union across kinds (unused fields
// are zero). The pointer handed to the journal sink is reused between
// emissions — sinks must serialize synchronously and not retain it (or
// its Grants slice / Spec pointer) past the call.
type Rec struct {
	Kind     RecKind
	ID       int64 // job ID
	At       int64 // submit time / alloc time / event time / clock
	Duration int64 // allocation duration
	Priority int
	Unsat    bool // RecSubmit: rejected as unsatisfiable
	Down     bool // RecEvent / RecEventPop: node-down vs node-up
	Path     string
	Retries  int   // RecRequeue / RecFail: post-eviction retry count
	LostCore int64 // RecRequeue / RecFail: lost core-seconds charged
	Grants   []traverser.Grant
	Spec     *jobspec.Jobspec // RecSubmit
}

// SetJournal attaches fn as the scheduler's journal sink (nil detaches).
// fn is called synchronously from every mutating operation with a reused
// *Rec; it must not retain the pointer. While a sink is attached the
// scheduler allocates grant slices on start/reserve paths; detached, the
// hot loop stays allocation-free.
func (s *Scheduler) SetJournal(fn func(*Rec)) { s.journal = fn }

// Atomic runs fn as one journal command unit: records emitted inside it
// commit together, so crash recovery lands either before or after the
// whole of fn, never inside. Drivers wrap multi-call steps (arrival
// batch + Schedule, fault-timeline seeding) in Atomic.
func (s *Scheduler) Atomic(fn func()) {
	s.jBegin()
	defer s.jEnd()
	fn()
}

// ForceFullWake voids all incremental-engine skip state so the next
// cycle re-attempts every pending job. Recovery calls it after replay:
// blocking signatures are transient and died with the process.
func (s *Scheduler) ForceFullWake() { s.wakeup.forceFullWake() }

// InCommand reports whether a journal command unit is open: a mutation
// observed while false happened outside any journaled operation and will
// not be reproduced by replay (the durability layer snapshots instead).
func (s *Scheduler) InCommand() bool { return s.jDepth > 0 }

// jBegin opens (or nests into) a journal command unit.
func (s *Scheduler) jBegin() { s.jDepth++ }

// jEnd closes a command unit; the outermost close emits RecCommit if
// any record was emitted inside.
func (s *Scheduler) jEnd() {
	s.jDepth--
	if s.jDepth == 0 && s.jDirty {
		s.jDirty = false
		if s.journal != nil {
			s.jbuf = Rec{Kind: RecCommit}
			s.journal(&s.jbuf)
		}
	}
}

// jrec emits one record through the reused buffer. Callers guard with
// `s.journal != nil` when building the record costs anything (grants).
func (s *Scheduler) jrec(r Rec) {
	if s.journal == nil {
		return
	}
	s.jbuf = r
	s.jDirty = true
	s.journal(&s.jbuf)
}

// unqueue removes job from the pending queue, preserving order.
func (s *Scheduler) unqueue(job *Job) {
	for i, j := range s.pending {
		if j == job {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// Apply replays one journal record's effect. The scheduler must have
// been restored from the checkpoint the journal was written against
// (same clock, jobs, queue, and installed allocations); records are
// applied in LSN order. No matching runs during replay — records carry
// their placements — so replay cost is O(records), not O(match).
func (s *Scheduler) Apply(r *Rec) error {
	switch r.Kind {
	case RecSubmit:
		if _, dup := s.jobs[r.ID]; dup {
			return fmt.Errorf("%w: submit of existing job %d", ErrReplay, r.ID)
		}
		if r.Spec == nil {
			return fmt.Errorf("%w: submit of job %d without jobspec", ErrReplay, r.ID)
		}
		job := &Job{ID: r.ID, Spec: r.Spec, Submit: r.At, Priority: r.Priority, State: StatePending}
		if r.Unsat {
			job.State = StateUnsatisfiable
			s.jobs[r.ID] = job
			return nil
		}
		s.jobs[r.ID] = job
		s.enqueue(job)
	case RecCycle:
		s.Cycles++
		s.stats.Cycles++
	case RecClock:
		if r.At < s.now {
			return fmt.Errorf("%w: clock moving backwards (%d -> %d)", ErrReplay, s.now, r.At)
		}
		s.setNow(r.At)
	case RecStart:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		alloc, err := s.tr.Reinstall(r.ID, r.At, r.Duration, false, r.Grants)
		if err != nil {
			return fmt.Errorf("%w: reinstall start of job %d: %v", ErrReplay, r.ID, err)
		}
		s.unqueue(job)
		s.start(job, alloc)
	case RecReserve:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		alloc, err := s.tr.Reinstall(r.ID, r.At, r.Duration, true, r.Grants)
		if err != nil {
			return fmt.Errorf("%w: reinstall reservation of job %d: %v", ErrReplay, r.ID, err)
		}
		s.reserve(job, alloc)
	case RecConvert:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		if job.State != StateReserved || job.Alloc == nil {
			return fmt.Errorf("%w: convert of job %d in state %s", ErrReplay, r.ID, job.State)
		}
		s.unqueue(job)
		s.convert(job)
	case RecUnreserve:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		s.demote(job)
	case RecDrop:
		// A reservation evicted by MarkDown: the traverser claim is
		// already gone, reset only the job side.
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		delete(s.reserved, job.ID)
		job.State = StatePending
		job.Alloc = nil
		job.sigOK = false
	case RecComplete:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		s.complete(job.ID)
	case RecRequeue, RecFail:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		s.requeues++
		s.lostCoreSec += r.LostCore
		job.Retries = r.Retries
		job.Alloc = nil
		job.sigOK = false
		if r.Kind == RecFail {
			job.State = StateFailed
			return nil
		}
		job.State = StatePending
		s.enqueue(job)
	case RecDown:
		// Evicted jobs are handled by the explicit RecRequeue/RecFail/
		// RecDrop records that follow; the mark itself reproduces the
		// graph-status and traverser-side effects.
		if _, err := s.tr.MarkDown(r.Path); err != nil {
			return fmt.Errorf("%w: mark down %q: %v", ErrReplay, r.Path, err)
		}
	case RecUp:
		if err := s.tr.MarkUp(r.Path); err != nil {
			return fmt.Errorf("%w: mark up %q: %v", ErrReplay, r.Path, err)
		}
	case RecEvent:
		heap.Push(&s.events, event{at: r.At, kind: eventKindOf(r.Down), path: r.Path})
	case RecEventPop:
		kind := eventKindOf(r.Down)
		for i := range s.events {
			e := s.events[i]
			if e.at == r.At && e.kind == kind && e.path == r.Path {
				heap.Remove(&s.events, i)
				return nil
			}
		}
		return fmt.Errorf("%w: no %s event at %d for %q to pop", ErrReplay, kind, r.At, r.Path)
	case RecQuarantine:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		if job.State == StateReserved {
			// Defensive: the live path demotes (journaling RecUnreserve)
			// before quarantining, so a reserved job here means a
			// hand-built log; demote to release the traverser claim.
			s.demote(job)
		}
		s.unqueue(job)
		s.quarantine(job, QuarantineReason(r.Retries), r.Path)
	case RecUnquarantine:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		if job.State != StateQuarantined {
			return fmt.Errorf("%w: unquarantine of job %d in state %s", ErrReplay, r.ID, job.State)
		}
		s.release(job)
	case RecWithdraw:
		job, err := s.replayJob(r)
		if err != nil {
			return err
		}
		if job.Alloc != nil || job.State == StateRunning || job.State == StateReserved {
			_ = s.tr.Cancel(r.ID)
		}
		s.unqueue(job)
		delete(s.reserved, r.ID)
		delete(s.jobs, r.ID)
	case RecCommit:
		// Command boundary; no state change.
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrReplay, r.Kind)
	}
	return nil
}

// replayJob resolves a record's job, which must already exist.
func (s *Scheduler) replayJob(r *Rec) (*Job, error) {
	job := s.jobs[r.ID]
	if job == nil {
		return nil, fmt.Errorf("%w: %s record for unknown job %d", ErrReplay, r.Kind, r.ID)
	}
	return job, nil
}

func eventKindOf(down bool) eventKind {
	if down {
		return evNodeDown
	}
	return evNodeUp
}
