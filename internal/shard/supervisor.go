package shard

// This file is the shard supervision layer: shards are the scheduler's
// failure domains, and the supervisor makes a shard failure a contained,
// recoverable event instead of a process-wide crash or a wedged lockstep
// driver.
//
// Every supervised cycle runs behind a panic fence and (optionally) a
// wall-clock cycle deadline — the per-shard analogue of the
// internal/sched defense fences, one level up: sched's fence contains a
// poisoned *job*, this one contains a poisoned *shard*. Cycle outcomes
// drive a per-shard health state machine:
//
//	Healthy --consecutive bad cycles--> Suspect
//	Suspect --good cycle--> Healthy
//	Suspect --probe failures (exponential backoff)--> Failed
//	Failed  --rebuild probe succeeds--> Recovering --> Healthy
//
// A Suspect shard stays fully in rotation (the discrete-event lockstep
// cannot pause a shard without skipping its events); suspicion only
// changes the bookkeeping — probes are counted cycles spaced by a
// doubling backoff, so a shard flapping under transient load gets
// geometrically more slack before the failover hammer falls.
//
// Failing a shard quarantines it: the router stops placing to it and
// drops its subtrees from residue scoring (placeable()), its pending and
// reserved jobs drain to surviving shards through the router's one
// placement path, and its running jobs are awaited under a
// simulated-time grace window — completions still dispatch through
// fenced cycles — or evicted through the sched.NodeDown requeue path
// when the grace expires or a fault trips during the wait. A drained
// shard goes dark: excluded from the lockstep clock entirely, frozen
// until reabsorption.
//
// Reabsorption rebuilds the shard from scratch: partitioning is
// deterministic, so re-partitioning the source graph reproduces the
// shard's exact subtree; a fresh traverser/scheduler is built over it,
// advanced to the lockstep clock, and probed with one fenced cycle (the
// chaos hook included — a persisting fault fails the probe and the
// rebuild is discarded). On success the old scheduler's terminal job
// records and counters are retired into the supervisor's tables and the
// new core is attached. The same rebuild path backs the operator
// Reabsorb and the automatic recovery probes.

import (
	"fmt"
	"sort"
	"time"

	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
)

// Health is a shard's supervision state.
type Health uint8

// Shard health states.
const (
	// Healthy shards take placements and run cycles normally.
	Healthy Health = iota
	// Suspect shards tripped the cycle fence or deadline; they stay in
	// rotation while backoff probes decide between recovery and failure.
	Suspect
	// Failed shards are quarantined: unroutable, drained, and (once any
	// running jobs resolve) dark until reabsorbed.
	Failed
	// Recovering is the transient state while a rebuild probe runs.
	Recovering
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	case Recovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// Supervisor defaults (see SupervisorConfig).
const (
	DefaultSuspectAfter  = 1
	DefaultFailAfter     = 2
	DefaultProbeBackoff  = 1
	DefaultRecoveryProbe = 4
	DefaultGraceSeconds  = 60
)

// SupervisorConfig parameterizes the shard supervision layer. The zero
// value enables supervision with the defaults above.
type SupervisorConfig struct {
	// SuspectAfter is how many consecutive bad cycles (fence trips or
	// deadline misses) move a healthy shard to Suspect (default 1).
	SuspectAfter int
	// FailAfter is how many counted probe failures move a suspect shard
	// to Failed (default 2). Probes are spaced by an exponentially
	// doubling round backoff starting at ProbeBackoff.
	FailAfter int
	// ProbeBackoff is the initial number of rounds between counted
	// probes while Suspect (default 1); it doubles after each failure.
	ProbeBackoff int
	// RecoveryProbe is the initial number of supervise rounds between
	// automatic reabsorption attempts for a failed shard (default 4,
	// doubling after each failed probe). Negative disables automatic
	// recovery — the shard stays down until an operator Reabsorb.
	RecoveryProbe int
	// GraceSeconds bounds, in simulated seconds, how long a failed
	// shard's running jobs are awaited before being evicted through the
	// requeue path (default 60). Negative evicts immediately.
	GraceSeconds int64
	// CycleDeadline is the wall-clock budget per shard cycle; exceeding
	// it counts as a bad cycle (0 disables the deadline watch).
	CycleDeadline time.Duration
}

// HealthEvent is one health-state transition, for the supervisor event
// log (operator forensics, CI artifacts).
type HealthEvent struct {
	// At is the simulated time of the transition.
	At int64
	// Shard is the shard index.
	Shard int
	// From and To are the states. From == To marks an in-state action
	// (eviction of a failed shard's running jobs).
	From, To Health
	// Reason is the trigger: the panic message, "cycle deadline
	// exceeded", an operator note, "reabsorbed", …
	Reason string
}

func (e HealthEvent) String() string {
	return fmt.Sprintf("t=%d shard %d %s -> %s (%s)", e.At, e.Shard, e.From, e.To, e.Reason)
}

// SupervisorStats counts the supervision layer's work.
type SupervisorStats struct {
	// Trips counts cycle panic-fence trips.
	Trips int64
	// DeadlineMisses counts cycles over the cycle deadline.
	DeadlineMisses int64
	// Failures counts Suspect→Failed (and operator-forced) transitions.
	Failures int64
	// Recoveries counts successful reabsorptions.
	Recoveries int64
	// Probes counts counted suspect probes and recovery probes.
	Probes int64
	// Drained counts pending/reserved jobs moved off failed shards onto
	// survivors.
	Drained int64
	// Evicted counts running jobs evicted from failed shards through the
	// requeue path.
	Evicted int64
	// Lost counts jobs no surviving shard could hold (recorded
	// StateFailed) plus non-terminal stragglers discarded at retire.
	Lost int64
}

// supervisor is the supervision state shared across shards: config, the
// event log, counters, the chaos cycle hook, and the retired-job tables
// that preserve history across reabsorptions.
type supervisor struct {
	cfg       SupervisorConfig
	events    []HealthEvent
	stats     SupervisorStats
	cycleHook func(shard int, now int64)

	// retired holds terminal job records whose owning scheduler was
	// discarded at reabsorb time, plus jobs lost to failures; byJob maps
	// them to the retiredShard sentinel.
	retired map[int64]*sched.Job
	// retiredMetrics/retiredStats/retiredCycles fold discarded
	// schedulers' counters into the merged accessors.
	retiredMetrics sched.Metrics
	retiredStats   sched.Stats
	retiredCycles  int
	// touched records every job a failover moved, evicted, or lost —
	// the complement of the decision-parity set.
	touched map[int64]struct{}
}

// newSupervisor resolves defaults.
func newSupervisor(cfg SupervisorConfig) *supervisor {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.ProbeBackoff <= 0 {
		cfg.ProbeBackoff = DefaultProbeBackoff
	}
	if cfg.RecoveryProbe == 0 {
		cfg.RecoveryProbe = DefaultRecoveryProbe
	}
	if cfg.GraceSeconds == 0 {
		cfg.GraceSeconds = DefaultGraceSeconds
	}
	return &supervisor{
		cfg:     cfg,
		retired: make(map[int64]*sched.Job),
		touched: make(map[int64]struct{}),
	}
}

// SetCycleHook installs fn at the top of every supervised shard cycle —
// the chaos injection point (chaos.Plan.ShardHook). Installing a hook on
// an unsupervised Sharded enables a default-config supervisor, mirroring
// sched.SetMatchHook: injecting faults implies wanting the fences.
func (sh *Sharded) SetCycleHook(fn func(shard int, now int64)) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sup == nil {
		sh.sup = newSupervisor(SupervisorConfig{})
	}
	sh.sup.cycleHook = fn
}

// Supervised reports whether the shard supervision layer is enabled.
func (sh *Sharded) Supervised() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sup != nil
}

// ShardHealth returns shard i's supervision state (Healthy when
// unsupervised).
func (sh *Sharded) ShardHealth(i int) Health {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.shards[i].health
}

// HealthEvents returns a copy of the supervisor's transition log.
func (sh *Sharded) HealthEvents() []HealthEvent {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sup == nil {
		return nil
	}
	out := make([]HealthEvent, len(sh.sup.events))
	copy(out, sh.sup.events)
	return out
}

// SupervisorStats returns the supervision layer's counters.
func (sh *Sharded) SupervisorStats() SupervisorStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sup == nil {
		return SupervisorStats{}
	}
	return sh.sup.stats
}

// TouchedJobs returns the sorted IDs of every job a failover moved,
// evicted, or lost — the jobs excluded from decision-parity claims.
func (sh *Sharded) TouchedJobs() []int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sup == nil {
		return nil
	}
	out := make([]int64, 0, len(sh.sup.touched))
	for id := range sh.sup.touched {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// FailShard administratively fails shard i with the given reason: the
// router stops placing to it, pending and reserved jobs drain to the
// survivors, running jobs are awaited under the grace window (or evicted
// immediately when grace is negative). The shard returns to rotation via
// automatic recovery probes or an operator Reabsorb. Enables a
// default-config supervisor if none is configured.
func (sh *Sharded) FailShard(i int, reason string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i < 0 || i >= len(sh.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	if sh.sup == nil {
		sh.sup = newSupervisor(SupervisorConfig{})
	}
	st := sh.shards[i]
	if st.health == Failed {
		return nil
	}
	sh.failShard(st, sh.now(), "operator: "+reason)
	return nil
}

// Reabsorb rebuilds failed shard i from a fresh partition and returns it
// to rotation — the operator override of the automatic probe schedule.
// Running jobs still awaited under grace are evicted first.
func (sh *Sharded) Reabsorb(i int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i < 0 || i >= len(sh.shards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	st := sh.shards[i]
	if st.health != Failed {
		return fmt.Errorf("shard: shard %d is %s, not failed", i, st.health)
	}
	if st.awaiting {
		sh.evictShard(st, sh.now(), "operator reabsorb")
	}
	sh.sup.stats.Probes++
	return sh.tryReabsorb(st)
}

// fencedCycle runs one shard cycle (step = event dispatch + cycle,
// otherwise a plain scheduling cycle) behind the supervisor's panic
// fence and deadline watch, recording the outcome in the shard's trip
// flags. It runs on the shard's cycle goroutine; each shard writes only
// its own flags and supervise() consumes them after the cycle barrier.
//
// The chaos hook runs inside the fence, before dispatch: an injected
// kill panics out before any event or queue mutation, so a killed cycle
// leaves the shard scheduler's state exactly as it was — important for
// the decision-parity property, and true of sched's own fences for
// organic panics (the traverser unlocks via defers).
func (sh *Sharded) fencedCycle(st *shardState, step bool) {
	deadline := sh.sup.cfg.CycleDeadline
	var started time.Time
	if deadline > 0 {
		started = time.Now()
	}
	st.cycled = true
	func() {
		defer func() {
			if r := recover(); r != nil {
				st.tripped = true
				st.tripMsg = fmt.Sprint(r)
			}
		}()
		if hook := sh.sup.cycleHook; hook != nil {
			hook(st.idx, st.s.Now())
		}
		if step {
			st.s.Step()
		} else {
			st.s.Schedule()
		}
	}()
	st.dirty = true
	if deadline > 0 && time.Since(started) > deadline {
		st.slow = true
	}
}

// supervise digests the round's cycle outcomes after the cycle barrier:
// trip/deadline flags drive each shard's health state machine, failed
// shards' grace windows are policed, and recovery probes fire on their
// backoff schedule. Runs with the router lock held, shards in index
// order — transitions are deterministic for a given cycle outcome.
func (sh *Sharded) supervise() {
	sup := sh.sup
	if sup == nil {
		return
	}
	now := sh.now()
	for _, st := range sh.shards {
		cycled := st.cycled
		bad := st.tripped || st.slow
		reason := st.tripMsg
		if reason == "" && st.slow {
			reason = "cycle deadline exceeded"
		}
		if st.tripped {
			sup.stats.Trips++
		}
		if st.slow {
			sup.stats.DeadlineMisses++
		}
		st.cycled, st.tripped, st.slow, st.tripMsg = false, false, false, ""
		switch st.health {
		case Healthy:
			if !cycled {
				continue
			}
			if !bad {
				st.strikes = 0
				continue
			}
			st.strikes++
			if st.strikes >= sup.cfg.SuspectAfter {
				sh.transition(st, Suspect, reason)
				st.probeFails = 0
				st.backoff = sup.cfg.ProbeBackoff
				st.countdown = 0
			}
		case Suspect:
			if !cycled {
				// No fenced cycle ran this round (a lockstep step with
				// no event here), so there is no verdict to digest: a
				// quiet shard is neither recovered nor worse.
				continue
			}
			if !bad {
				sh.transition(st, Healthy, "cycle recovered")
				st.strikes, st.probeFails = 0, 0
				continue
			}
			if st.countdown > 0 {
				st.countdown--
				continue
			}
			sup.stats.Probes++
			st.probeFails++
			if st.probeFails >= sup.cfg.FailAfter {
				sh.failShard(st, now, reason)
			} else {
				st.countdown = st.backoff
				st.backoff *= 2
			}
		case Failed:
			if st.awaiting {
				if runningCount(st) == 0 {
					// The awaited running jobs all resolved; go dark.
					st.awaiting = false
				} else if bad || now >= st.graceUntil {
					why := "grace expired, evicting running jobs"
					if bad {
						why = "cycle fault while awaiting: " + reason
					}
					sh.evictShard(st, now, why)
				}
			}
			if !st.awaiting && sup.cfg.RecoveryProbe > 0 {
				if st.countdown > 0 {
					st.countdown--
				} else {
					sup.stats.Probes++
					if sh.tryReabsorb(st) != nil {
						st.countdown = st.backoff
						st.backoff *= 2
					}
				}
			}
		}
	}
}

// transition logs and applies one health-state change.
func (sh *Sharded) transition(st *shardState, to Health, reason string) {
	sh.sup.events = append(sh.sup.events, HealthEvent{
		At: sh.now(), Shard: st.idx, From: st.health, To: to, Reason: reason,
	})
	st.health = to
}

// runningCount counts a shard's jobs in StateRunning.
func runningCount(st *shardState) int {
	n := 0
	for _, j := range st.s.Jobs() {
		if j.State == sched.StateRunning {
			n++
		}
	}
	return n
}

// failShard quarantines a shard: transition to Failed, drain its queue
// to survivors, and settle its running jobs (await under grace, or evict
// immediately when grace is negative). Recovery probes are armed with
// the doubling backoff.
func (sh *Sharded) failShard(st *shardState, now int64, reason string) {
	sup := sh.sup
	sup.stats.Failures++
	sh.transition(st, Failed, reason)
	sh.drainShard(st)
	switch {
	case runningCount(st) == 0:
		st.awaiting = false
	case sup.cfg.GraceSeconds < 0:
		sh.evictShard(st, now, "no grace, evicting running jobs")
	default:
		st.awaiting = true
		st.graceUntil = now + sup.cfg.GraceSeconds
	}
	if sup.cfg.RecoveryProbe > 0 {
		st.countdown = sup.cfg.RecoveryProbe
		st.backoff = sup.cfg.RecoveryProbe * 2
	}
}

// drainShard moves every pending and reserved job off a failed shard
// onto the surviving shards through place, the path submits and steals
// take: ranked by residue headroom (negative headroom still qualifies —
// the job fits later; only static-capacity misfits are excluded), with
// original Submit/Retries preserved and overflow re-routing on an
// unsatisfiable verdict. A job no survivor accepts is recorded lost
// (StateFailed) — a real cost of losing the shard, counted, not hidden.
// Receivers run one fenced catch-up cycle so drained jobs get a decision
// this round.
func (sh *Sharded) drainShard(st *shardState) {
	sup := sh.sup
	jobs := st.s.PendingJobs()
	var reserved []*sched.Job
	for _, j := range st.s.Jobs() {
		if j.State == sched.StateReserved {
			reserved = append(reserved, j)
		}
	}
	sort.Slice(reserved, func(a, b int) bool { return reserved[a].ID < reserved[b].ID })
	for _, job := range append(jobs, reserved...) {
		sup.touched[job.ID] = struct{}{}
		nj, _, _ := sh.place(job, draining)
		switch {
		case nj == nil:
			_, _ = st.s.Withdraw(job.ID)
			job.State = sched.StateFailed
			sup.retired[job.ID] = job
			sh.byJob[job.ID] = retiredShard
			sup.stats.Lost++
		case nj.State != sched.StateUnsatisfiable:
			sup.stats.Drained++
		}
	}
	sh.catchUp()
}

// evictShard forces a failed shard's running jobs through the requeue
// path — sched.NodeDown on the shard root marks the whole subtree down,
// evicting running jobs (Retries++, lost core-seconds accounted) and
// dropping reservations — then drains the requeued jobs to survivors and
// takes the shard dark.
func (sh *Sharded) evictShard(st *shardState, now int64, why string) {
	sup := sh.sup
	running := runningCount(st)
	if root := st.g.Root(resgraph.Containment); root != nil {
		if evicted, err := st.s.NodeDown(root.Path()); err == nil {
			for _, id := range evicted {
				sup.touched[id] = struct{}{}
			}
		}
	}
	sup.stats.Evicted += int64(running)
	sup.events = append(sup.events, HealthEvent{
		At: now, Shard: st.idx, From: Failed, To: Failed, Reason: why,
	})
	st.awaiting = false
	sh.drainShard(st)
}

// tryReabsorb rebuilds a failed shard from a fresh partition of the
// source graph (partitioning is deterministic — the rebuilt subtree is
// vertex-for-vertex the shard's original resources), advances it to the
// lockstep clock, and probes it with one fenced cycle. On success the
// old scheduler's records are retired and the new core attached; on
// failure the rebuild is discarded and the shard stays Failed.
func (sh *Sharded) tryReabsorb(st *shardState) error {
	sup := sh.sup
	sh.transition(st, Recovering, "rebuilding from partition")
	fail := func(err error) error {
		sh.transition(st, Failed, "recovery failed: "+err.Error())
		return err
	}
	parts, err := sh.srcGraph.Partition(sh.cutType, len(sh.shards))
	if err != nil {
		return fail(err)
	}
	g := parts[st.idx]
	tr, s, err := sh.buildCore(g)
	if err != nil {
		return fail(err)
	}
	if err := s.AdvanceTo(sh.now()); err != nil {
		return fail(err)
	}
	if err := sh.probeCycle(st.idx, s); err != nil {
		return fail(err)
	}
	sh.retire(st)
	st.attach(g, tr, s)
	st.strikes, st.probeFails, st.countdown, st.backoff = 0, 0, 0, 0
	st.graceUntil, st.awaiting = 0, false
	sh.transition(st, Healthy, "reabsorbed")
	sup.stats.Recoveries++
	return nil
}

// probeCycle runs one fenced scheduling cycle on a rebuilt scheduler —
// cycle hook included, so a still-open chaos fault window (or a real
// recurring fault) fails the probe before the rebuild is committed.
func (sh *Sharded) probeCycle(idx int, s *sched.Scheduler) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe panic: %v", r)
		}
	}()
	started := time.Now()
	if hook := sh.sup.cycleHook; hook != nil {
		hook(idx, s.Now())
	}
	s.Schedule()
	if d := sh.sup.cfg.CycleDeadline; d > 0 && time.Since(started) > d {
		return fmt.Errorf("probe exceeded cycle deadline %s", d)
	}
	return nil
}

// retire preserves a discarded scheduler's history before reabsorption
// replaces it: terminal job records move to the supervisor's retired
// table (byJob keeps resolving them), work counters fold into the
// retired accumulators, and any non-terminal straggler — impossible when
// the drain/evict path ran, defended against anyway — is recorded lost.
func (sh *Sharded) retire(st *shardState) {
	sup := sh.sup
	for id, j := range st.s.Jobs() {
		switch j.State {
		case sched.StateCompleted, sched.StateFailed, sched.StateUnsatisfiable, sched.StateQuarantined:
		default:
			j.State = sched.StateFailed
			sup.stats.Lost++
			sup.touched[id] = struct{}{}
		}
		sup.retired[id] = j
		sh.byJob[id] = retiredShard
	}
	m := st.s.Metrics()
	sup.retiredMetrics.Requeues += m.Requeues
	sup.retiredMetrics.LostCoreSeconds += m.LostCoreSeconds
	sup.retiredStats.Add(st.s.Stats())
	sup.retiredCycles += st.s.Cycles
}
