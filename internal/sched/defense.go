package sched

// This file implements the scheduler self-defense layer: the loop must
// survive hostile inputs, stuck work, and overload instead of crashing
// or stalling, because it is the long-running core a daemon stands on.
//
// Four defenses compose, all opt-in via WithDefense:
//
//   - panic isolation: every traverser match attempt runs behind a
//     recover() fence that converts a panic into a typed ErrPoisoned
//     failure for that one job;
//   - poison-job quarantine: a job whose match panics or whose failed
//     attempt exceeds MatchDeadline is moved to StateQuarantined — out
//     of the pending queue, never retried — with inspect/release APIs
//     and journal records so quarantine survives a crash
//     (RecQuarantine/RecUnquarantine);
//   - cycle watchdog: a deadline on each scheduling cycle drives a
//     degradation ladder that sheds work one rung at a time (skip
//     backfill probes behind a blocked head → bound how many jobs a
//     cycle attempts) and re-arms — steps back down — after RearmAfter
//     consecutive healthy cycles;
//   - admission backpressure: SubmitPriority rejects with ErrOverload
//     once the pending queue crosses AdmitHigh, and keeps rejecting
//     until it drains to AdmitLow (hysteresis, so admission does not
//     flap at the watermark).
//
// Decision parity is the design invariant: a quarantined job must leave
// every other job's schedule untouched. Quarantine never sets the cycle
// loops' `blocked` flag and a poisoned attempt never commits capacity,
// so the queue walk behind a quarantined job sees exactly the
// environment of a run where that job never existed. The parity property
// test lives in internal/chaos.
//
// Hot-path discipline: with no defense configured (s.defense == nil)
// every match helper dispatches straight to the traverser — no deferred
// recover, no time.Now, no closure — so the zero-allocation benchmarks
// (BenchmarkSchedCycle, BenchmarkLODMatch) are unaffected.
//
// A panic inside a match walk leaves no state behind: the traverser
// unlocks via defers, and the kernel writes no planner (its claims live
// in scratch, dropped by a defer). Known limitation, by design: a panic
// inside the install that follows a successful walk would leave partial
// spans; the fence still contains it to one job, but such a job should
// not be released from quarantine.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fluxion/internal/traverser"
)

// Typed defense errors.
var (
	// ErrPoisoned marks a job failed by the defense layer: its match
	// attempt panicked or blew the per-attempt deadline. The job is
	// quarantined, not retried.
	ErrPoisoned = errors.New("sched: job poisoned")
	// ErrOverload rejects a submit while the pending queue is above the
	// admission watermarks.
	ErrOverload = errors.New("sched: submit queue overloaded")
	// ErrInvalidSpec rejects a structurally invalid or unknown-type
	// jobspec at submit, before it reaches the match kernel.
	ErrInvalidSpec = errors.New("sched: invalid jobspec")
	// ErrNotQuarantined reports a release/inspect call for a job that is
	// not quarantined.
	ErrNotQuarantined = errors.New("sched: job not quarantined")
)

// QuarantineReason records why a job was quarantined. The journal stores
// it as a number (RecQuarantine.Retries), so a value is never reused.
type QuarantineReason uint8

// Quarantine reasons.
const (
	QuarantineNone QuarantineReason = iota
	// QuarantinePanic: a match attempt panicked.
	QuarantinePanic
	// QuarantineDeadline: a failed match attempt exceeded MatchDeadline.
	QuarantineDeadline
	_ // 3: retired (speculative-commit conflicts)
	// QuarantineManual: an operator called Quarantine directly.
	QuarantineManual
)

func (r QuarantineReason) String() string {
	switch r {
	case QuarantineNone:
		return "none"
	case QuarantinePanic:
		return "panic"
	case QuarantineDeadline:
		return "deadline"
	case QuarantineManual:
		return "manual"
	default:
		return "unknown"
	}
}

// parseQuarantineReason is the inverse of String, for checkpoint decode.
func parseQuarantineReason(s string) (QuarantineReason, error) {
	for _, r := range []QuarantineReason{QuarantineNone, QuarantinePanic,
		QuarantineDeadline, QuarantineManual} {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown quarantine reason %q", s)
}

// Degradation ladder rungs, shed in order and re-armed in reverse.
const (
	ladderNormal       = 0 // full service
	ladderShedBackfill = 1 // skip backfill probes behind a blocked head
	ladderBoundedWake  = 2 // bound how many jobs a cycle attempts
)

// Defaults for DefenseConfig zero fields.
const (
	// DefaultRearmAfter is how many consecutive healthy cycles step the
	// ladder down one rung.
	DefaultRearmAfter = 4
	// DefaultBoundedWake is the per-cycle attempt cap at the
	// bounded-wake rung.
	DefaultBoundedWake = 32
)

// DefenseConfig parameterizes the self-defense layer. The zero value
// enables only the panic fences: every other defense is off until its
// knob is set.
type DefenseConfig struct {
	// MatchDeadline quarantines a job whose *failed* match attempt took
	// longer than this (0 = off). Slow successful attempts are allowed:
	// their allocation already committed, and aggregate slowness is the
	// cycle watchdog's job.
	MatchDeadline time.Duration
	// CycleDeadline arms the cycle watchdog: a scheduling cycle running
	// longer than this climbs the degradation ladder one rung (0 = off).
	CycleDeadline time.Duration
	// RearmAfter is how many consecutive under-deadline cycles step the
	// ladder back down one rung (default DefaultRearmAfter).
	RearmAfter int
	// BoundedWake caps how many pending jobs a cycle attempts at the
	// bounded-wake rung (default DefaultBoundedWake).
	BoundedWake int
	// AdmitHigh is the pending-queue high watermark: submits are
	// rejected with ErrOverload at or above it (0 = no backpressure).
	AdmitHigh int
	// AdmitLow re-opens admission once the pending queue drains to this
	// depth (default AdmitHigh/2).
	AdmitLow int
}

// defenseState is the live defense machinery hanging off the scheduler.
type defenseState struct {
	cfg DefenseConfig
	// level is the current degradation-ladder rung; calm counts
	// consecutive healthy cycles toward stepping back down.
	level int
	calm  int
	// overloaded latches admission shut between AdmitHigh and AdmitLow.
	overloaded bool
	// hook, when set, observes every fenced match attempt before it
	// dispatches — the chaos harness's injection point for panics and
	// latency. Panics thrown from the hook are recovered by the fence.
	hook func(jobID int64)
}

// WithDefense enables the self-defense layer: panic fences around all
// match attempts, plus whichever quarantine/watchdog/admission defenses
// cfg switches on. Without this option the scheduler runs the raw
// zero-allocation match path.
func WithDefense(cfg DefenseConfig) SchedOption {
	return func(s *Scheduler) { s.defense = &defenseState{cfg: cfg} }
}

// SetMatchHook registers fn to observe every fenced match attempt (nil
// removes it). The hook runs on the matching goroutine before dispatch;
// a panic it throws is recovered by the fence and poisons that job —
// this is the chaos harness's injection point. Calling it on a scheduler
// built without WithDefense enables the fences with a zero config.
func (s *Scheduler) SetMatchHook(fn func(jobID int64)) {
	if s.defense == nil {
		s.defense = &defenseState{}
	}
	s.defense.hook = fn
}

// DefenseLevel returns the current degradation-ladder rung (0 = full
// service, 2 = bounded wake).
func (s *Scheduler) DefenseLevel() int {
	if s.defense == nil {
		return 0
	}
	return s.defense.level
}

// Overloaded reports whether admission is currently latched shut.
func (s *Scheduler) Overloaded() bool {
	return s.defense != nil && s.defense.overloaded
}

// fencedMatch wraps one match attempt in the defense envelope: the chaos
// hook, a recover() fence converting panics into ErrPoisoned, and the
// per-attempt deadline on failure.
func (s *Scheduler) fencedMatch(op matchOp, job *Job, at int64) (alloc *traverser.Allocation, err error) {
	d := s.defense
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.poison(job, QuarantinePanic, fmt.Sprintf("match panicked: %v", r))
			alloc, err = nil, fmt.Errorf("%w: job %d: %s", ErrPoisoned, job.ID, job.QuarantineMsg)
		}
	}()
	if d.hook != nil {
		d.hook(job.ID)
	}
	alloc, err = s.rawMatch(op, job, at)
	if err != nil && d.cfg.MatchDeadline > 0 {
		if el := time.Since(start); el > d.cfg.MatchDeadline {
			s.poison(job, QuarantineDeadline,
				fmt.Sprintf("failed match attempt took %v (deadline %v)",
					el.Round(time.Millisecond), d.cfg.MatchDeadline))
			err = fmt.Errorf("%w: job %d: %s", ErrPoisoned, job.ID, job.QuarantineMsg)
		}
	}
	return alloc, err
}

// poison marks a job for quarantine at its cycle position, staging the
// reason and message in the exported quarantine fields (the loop's
// quarantine lands in the same cycle).
func (s *Scheduler) poison(job *Job, reason QuarantineReason, msg string) {
	job.poisoned = true
	job.Quarantine = reason
	job.QuarantineMsg = msg
	job.sigOK = false
}

// quarantine moves a job into StateQuarantined: out of the pending queue
// and reservation table, journaled so the state survives a crash. The
// caller is responsible for the job's queue slot (cycle loops drop it;
// the manual API unqueues first).
func (s *Scheduler) quarantine(job *Job, reason QuarantineReason, msg string) {
	s.jrec(Rec{Kind: RecQuarantine, ID: job.ID, Retries: int(reason), Path: msg})
	delete(s.reserved, job.ID)
	job.State = StateQuarantined
	job.Quarantine = reason
	job.QuarantineMsg = msg
	job.Alloc = nil
	job.sigOK = false
	job.poisoned = false
	s.stats.Quarantined++
}

// quarantinePoisoned quarantines a job flagged by the fence inside a
// cycle loop. The cycle's `blocked` flag is deliberately untouched and
// the job is not appended to the surviving queue: jobs behind it see
// exactly the schedule of a run where it never existed.
func (s *Scheduler) quarantinePoisoned(job *Job) {
	s.quarantine(job, job.Quarantine, job.QuarantineMsg)
}

// Quarantine manually quarantines a pending or reserved job (operator
// API; running jobs cannot be quarantined — cancel them first).
func (s *Scheduler) Quarantine(id int64, msg string) error {
	job := s.jobs[id]
	if job == nil {
		return fmt.Errorf("%w: %d", traverser.ErrUnknownJob, id)
	}
	s.jBegin()
	defer s.jEnd()
	switch job.State {
	case StateReserved:
		s.demote(job)
	case StatePending:
	default:
		return fmt.Errorf("sched: cannot quarantine job %d in state %s", id, job.State)
	}
	s.unqueue(job)
	if msg == "" {
		msg = "quarantined by operator"
	}
	s.quarantine(job, QuarantineManual, msg)
	return nil
}

// ReleaseQuarantined returns a quarantined job to the pending queue (it
// re-enters behind peers of its priority). The release is journaled, so
// it too survives a crash.
func (s *Scheduler) ReleaseQuarantined(id int64) error {
	job := s.jobs[id]
	if job == nil {
		return fmt.Errorf("%w: %d", traverser.ErrUnknownJob, id)
	}
	if job.State != StateQuarantined {
		return fmt.Errorf("%w: job %d is %s", ErrNotQuarantined, id, job.State)
	}
	if job.Spec == nil {
		return fmt.Errorf("%w: job %d has no jobspec to re-schedule", ErrNotQuarantined, id)
	}
	s.jBegin()
	defer s.jEnd()
	s.jrec(Rec{Kind: RecUnquarantine, ID: id})
	s.release(job)
	return nil
}

// release is the journal-free half of ReleaseQuarantined, shared with
// replay.
func (s *Scheduler) release(job *Job) {
	job.State = StatePending
	job.Quarantine = QuarantineNone
	job.QuarantineMsg = ""
	job.poisoned = false
	s.enqueue(job)
}

// Quarantined returns the IDs of all quarantined jobs, sorted.
func (s *Scheduler) Quarantined() []int64 {
	var out []int64
	for id, j := range s.jobs {
		if j.State == StateQuarantined {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// admit applies admission backpressure before a submit: above AdmitHigh
// the gate latches shut and stays shut until the pending queue drains to
// AdmitLow.
func (s *Scheduler) admit() error {
	d := s.defense
	if d == nil || d.cfg.AdmitHigh <= 0 {
		return nil
	}
	low := d.cfg.AdmitLow
	if low <= 0 || low > d.cfg.AdmitHigh {
		low = d.cfg.AdmitHigh / 2
	}
	depth := len(s.pending)
	if d.overloaded {
		if depth > low {
			s.stats.OverloadRejects++
			return fmt.Errorf("%w: %d pending (admission resumes at %d)", ErrOverload, depth, low)
		}
		d.overloaded = false
	}
	if depth >= d.cfg.AdmitHigh {
		d.overloaded = true
		s.stats.OverloadRejects++
		return fmt.Errorf("%w: %d pending (high watermark %d)", ErrOverload, depth, d.cfg.AdmitHigh)
	}
	return nil
}

// observeCycle is the cycle watchdog, deferred from Schedule with the
// cycle's start time: an over-deadline cycle climbs the degradation
// ladder one rung; RearmAfter consecutive healthy cycles step back down
// one rung, so the ladder fully re-arms once pressure clears.
func (d *defenseState) observeCycle(start time.Time) {
	if time.Since(start) > d.cfg.CycleDeadline {
		if d.level < ladderBoundedWake {
			d.level++
		}
		d.calm = 0
		return
	}
	if d.level == 0 {
		return
	}
	d.calm++
	need := d.cfg.RearmAfter
	if need <= 0 {
		need = DefaultRearmAfter
	}
	if d.calm >= need {
		d.level--
		d.calm = 0
	}
}

// Ladder accessors, consulted by the cycle loops. All are nil-safe and
// collapse to the undegraded answer without defense.

// shedBackfill reports whether this cycle sheds backfill probes behind a
// blocked head (EASY/conservative degrade toward FCFS-like behavior).
func (s *Scheduler) shedBackfill() bool {
	return s.defense != nil && s.defense.level >= ladderShedBackfill
}

// attemptBound is the per-cycle attempt cap at the bounded-wake rung
// (0 = unbounded).
func (s *Scheduler) attemptBound() int {
	if s.defense == nil || s.defense.level < ladderBoundedWake {
		return 0
	}
	if s.defense.cfg.BoundedWake > 0 {
		return s.defense.cfg.BoundedWake
	}
	return DefaultBoundedWake
}
