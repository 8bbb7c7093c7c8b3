// Package simcli implements the fluxion-sim driver: it replays a job
// trace through the queuing scheduler on a GRUG-generated system and
// reports the per-job timeline plus run metrics. It is the command-line
// face of internal/sched, factored out of cmd/fluxion-sim for testing.
//
// Beyond plain replay it supports seeded per-node fault injection
// (exponential MTBF/MTTR, deterministic for a given seed) and a
// crash-recovery drill that checkpoints mid-run, rebuilds the scheduler
// from the checkpoint, and verifies the resumed run converges to the same
// terminal state as the uninterrupted one.
package simcli

import (
	"fmt"
	"io"
	"sort"
	"time"

	"fluxion"
	"fluxion/internal/chaos"
	"fluxion/internal/durable"
	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/shard"
	"fluxion/internal/trace"
	"fluxion/internal/wal"
)

// simHorizon is the planner horizon for simulation runs: effectively
// unbounded simulated seconds.
const simHorizon = int64(1) << 40

// Config parameterizes one simulation run.
type Config struct {
	Recipe      *grug.Recipe
	PruneSpec   resgraph.PruneSpec
	MatchPolicy string
	QueuePolicy sched.QueuePolicy
	// QueueDepth bounds how many pending jobs each scheduling cycle
	// plans (0 = unbounded).
	QueueDepth int
	// Timeline prints one line per job when true.
	Timeline bool
	// MaxSteps bounds the event loop (0 = drain completely).
	MaxSteps int

	// MTBF/MTTR (mean simulated seconds between node failures / to
	// repair) enable seeded per-node fault injection when both are
	// positive.
	MTBF int64
	MTTR int64
	// FaultSeed seeds the fault timeline; the same seed reproduces the
	// same failures event for event.
	FaultSeed int64
	// MaxRetries bounds failure-driven requeues per job (0 = scheduler
	// default).
	MaxRetries int
	// Drill checkpoints the run midway, rebuilds a scheduler from the
	// checkpoint, and verifies the resumed run reaches the same terminal
	// state.
	Drill bool

	// Shards > 1 runs the sharded scheduler (internal/shard): the graph
	// is partitioned into subtree shards cut at ShardCut, each with its
	// own scheduler loop behind a residue-routing root with work
	// stealing. Sharded runs are in-memory only: WAL durability, the
	// crash drill, fault injection, and job-level/storage chaos are
	// flat-scheduler features and are rejected in combination —
	// shard-level chaos (kills/stalls) is the sharded-only converse.
	Shards int
	// ShardCut is the containment type shards are cut at (default
	// "rack").
	ShardCut string

	// WALDir enables durable state when non-empty: every scheduler
	// mutation is journaled to a write-ahead log under this directory and
	// periodic snapshots bound replay. When the directory already holds
	// state from a crashed run, Run recovers it and resumes the trace
	// where the log ends instead of starting over.
	WALDir string
	// WALSyncInterval is the WAL group-commit fsync cadence (0 = the WAL
	// default of 10ms; negative = fsync every command).
	WALSyncInterval time.Duration
	// SnapshotEvery is how many journal command units elapse between
	// automatic snapshots (0 = durable.DefaultSnapshotEvery).
	SnapshotEvery int
	// WALFaults injects storage failures into the WAL (tests).
	WALFaults *wal.FaultPlan
	// WALKeepAll retains every WAL segment and snapshot instead of
	// compacting (archival mode; the crash drill truncates the full
	// history at every record boundary).
	WALKeepAll bool

	// Chaos composes every fault source behind one seeded plan: node
	// MTBF/MTTR (fills the fields above when they are unset), WAL storage
	// faults, the hostile-job streams (match panics, slow matches,
	// malformed specs), and shard kills/stalls (sharded runs only). When
	// the plan injects job-level faults the scheduler self-defense layer
	// auto-enables unless ChaosDry is set; when it injects shard faults
	// the shard supervisor auto-enables likewise.
	Chaos *chaos.Plan
	// ChaosDry runs the defense-free parity baseline: the plan's
	// poisoned jobs are filtered out of the trace up front and no faults
	// or defenses are installed. A chaos run and its dry twin must agree
	// on every surviving job's schedule.
	ChaosDry bool
	// Defense enables the scheduler self-defense layer (panic fences,
	// quarantine, cycle watchdog, admission backpressure) with the given
	// tuning. Set automatically for active chaos runs.
	Defense *sched.DefenseConfig
	// ShardSupervisor enables shard supervision and failover on sharded
	// runs (health state machine, quarantine-and-drain, reabsorption).
	// Auto-enabled with defaults when the chaos plan injects shard
	// faults.
	ShardSupervisor *shard.SupervisorConfig
}

// Result carries the outcome for programmatic callers.
type Result struct {
	Completed int
	Metrics   sched.Metrics
	// Scheduler is the flat scheduler (nil on sharded runs).
	Scheduler *sched.Scheduler
	// Sharded is the sharded scheduler (nil on flat runs).
	Sharded *shard.Sharded
	// Fluxion is the resource-layer handle the run scheduled against.
	Fluxion *fluxion.Fluxion
	// DrillRan/DrillOK report the crash-recovery drill (Config.Drill).
	DrillRan bool
	DrillOK  bool
	// Recovered reports that WAL state from a prior run was restored;
	// Recovery describes what the scan replayed and truncated.
	Recovered bool
	Recovery  wal.RecoveryStats
	// WALDegraded reports that a storage fault disabled durability
	// mid-run (the run completed non-durably).
	WALDegraded bool
}

// schedSetup is the scheduler configuration every run derives from a
// Config: the prune spec and queue policy with defaults applied, and the
// sched options (flat, sharded and drill-resumed schedulers share it).
type schedSetup struct {
	prune resgraph.PruneSpec
	queue sched.QueuePolicy
	opts  []sched.SchedOption
}

func (cfg *Config) setup() schedSetup {
	su := schedSetup{prune: cfg.PruneSpec, queue: cfg.QueuePolicy}
	if su.prune == nil {
		su.prune = resgraph.PruneSpec{resgraph.ALL: {"core", "node"}}
	}
	if su.queue == "" {
		su.queue = sched.Conservative
	}
	if cfg.QueueDepth > 0 {
		su.opts = append(su.opts, sched.WithQueueDepth(cfg.QueueDepth))
	}
	if cfg.MaxRetries > 0 {
		su.opts = append(su.opts, sched.WithMaxRetries(cfg.MaxRetries))
	}
	if cfg.Defense != nil {
		su.opts = append(su.opts, sched.WithDefense(*cfg.Defense))
	}
	return su
}

// banner prints the system and policy lines that open every report.
func (su schedSetup) banner(out io.Writer, cfg Config, g *resgraph.Graph, jobs int) {
	mp := cfg.MatchPolicy
	if mp == "" {
		mp = "first"
	}
	fmt.Fprintf(out, "system: %s\n", g.Stats())
	fmt.Fprintf(out, "policies: match=%s queue=%s; %d jobs\n", mp, su.queue, jobs)
}

// loopTarget is the discrete-event scheduler surface the looper drives,
// implemented by both *sched.Scheduler and *shard.Sharded.
type loopTarget interface {
	Now() int64
	HasEvents() bool
	NextEventAt() int64
	AdvanceTo(int64) error
	Step() bool
	Schedule()
	SubmitPriority(int64, *jobspec.Jobspec, int) (*sched.Job, error)
	Atomic(func())
}

// looper is the discrete-event loop: trace arrivals interleave with
// completion and node up/down events on the scheduler clock.
type looper struct {
	s     loopTarget
	jobs  []trace.Job
	i     int // next arrival index
	steps int
	max   int
	out   io.Writer
	// spec overrides jobspec construction per arrival (chaos malformed-
	// spec substitution); nil means the job's own spec.
	spec func(trace.Job) *jobspec.Jobspec
}

// drive advances the simulation until arrivals and events drain. When
// pause is non-nil it is consulted after every event step; returning true
// suspends the loop (resume by calling drive again).
func (l *looper) drive(pause func() bool) error {
	if l.max > 0 && l.steps >= l.max {
		return nil
	}
	for l.i < len(l.jobs) || l.s.HasEvents() {
		if l.i < len(l.jobs) && l.jobs[l.i].Submit <= l.s.Now() {
			// Submit everything due and re-plan the queue, as one journal
			// command unit: crash recovery lands before or after the whole
			// arrival batch, never between a submit and its cycle. A batch
			// whose submits were all rejected runs no cycle — rejections
			// leave no journal trace, so a recovered run that re-offers
			// them must not diverge by an extra cycle (Step schedules
			// after every event regardless).
			l.s.Atomic(func() {
				accepted := 0
				for l.i < len(l.jobs) && l.jobs[l.i].Submit <= l.s.Now() {
					j := l.jobs[l.i]
					js := j.Jobspec()
					if l.spec != nil {
						js = l.spec(j)
					}
					if _, err := l.s.SubmitPriority(j.ID, js, j.Priority); err != nil {
						fmt.Fprintf(l.out, "job %d rejected: %v\n", j.ID, err)
					} else {
						accepted++
					}
					l.i++
				}
				if accepted > 0 {
					l.s.Schedule()
				}
			})
			continue
		}
		// Next event: the earlier of the next arrival and the next
		// scheduler event.
		if l.i < len(l.jobs) && (!l.s.HasEvents() || l.jobs[l.i].Submit < l.s.NextEventAt()) {
			if err := l.s.AdvanceTo(l.jobs[l.i].Submit); err != nil {
				return err
			}
			continue
		}
		if !l.s.Step() {
			break
		}
		l.steps++
		if l.max > 0 && l.steps >= l.max {
			break
		}
		if pause != nil && pause() {
			return nil
		}
	}
	return nil
}

// Run replays the trace and writes a report to out.
func Run(cfg Config, jobs []trace.Job, out io.Writer) (*Result, error) {
	if cfg.Recipe == nil {
		return nil, fmt.Errorf("simcli: recipe is required")
	}
	if cfg.Shards > 1 {
		return runSharded(cfg, jobs, out)
	}
	plan := cfg.Chaos
	if plan.ShardActive() {
		return nil, fmt.Errorf("simcli: shard chaos requires a sharded run (-shards > 1)")
	}
	chaosLive := plan.Active() && !cfg.ChaosDry
	if plan != nil {
		if cfg.ChaosDry {
			// Parity baseline: the poisoned set never existed.
			jobs = plan.FilterTrace(jobs)
		} else {
			if plan.NodeMTBF > 0 && cfg.MTBF == 0 {
				cfg.MTBF, cfg.MTTR, cfg.FaultSeed = plan.NodeMTBF, plan.NodeMTTR, plan.Seed
			}
			if plan.Storage != nil && cfg.WALFaults == nil {
				cfg.WALFaults = plan.Storage
			}
			if chaosLive && cfg.Defense == nil {
				// Hostile jobs are incoming: enable the self-defense layer
				// with defaults (fences and quarantine active; deadline,
				// watchdog, and backpressure stay off until tuned).
				cfg.Defense = &sched.DefenseConfig{}
			}
		}
	}
	if (cfg.MTBF > 0) != (cfg.MTTR > 0) {
		return nil, fmt.Errorf("simcli: MTBF and MTTR must be set together")
	}
	su := cfg.setup()

	fresh := func() (*fluxion.Fluxion, *sched.Scheduler, error) {
		g, err := grug.BuildGraph(cfg.Recipe, 0, simHorizon, su.prune)
		if err != nil {
			return nil, nil, err
		}
		f, err := fluxion.New(fluxion.WithGraph(g), fluxion.WithPolicy(cfg.MatchPolicy))
		if err != nil {
			return nil, nil, err
		}
		s, err := sched.New(f.Traverser(), su.queue, su.opts...)
		if err != nil {
			return nil, nil, err
		}
		return f, s, nil
	}

	var st *durable.Store
	var f *fluxion.Fluxion
	var s *sched.Scheduler
	recovered := false
	if cfg.WALDir != "" {
		var err error
		st, err = durable.Open(durable.Options{
			Dir:           cfg.WALDir,
			SyncInterval:  cfg.WALSyncInterval,
			SnapshotEvery: cfg.SnapshotEvery,
			KeepAll:       cfg.WALKeepAll,
			Faults:        cfg.WALFaults,
			Warn:          out,
		})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if st.Recovered() {
			f, s, err = st.Restore(fresh, []fluxion.Option{
				fluxion.WithPolicy(cfg.MatchPolicy),
				fluxion.WithPruneSpec(su.prune),
				fluxion.WithHorizon(simHorizon),
			}, su.opts)
			if err != nil {
				return nil, fmt.Errorf("simcli: wal recovery: %w", err)
			}
			recovered = true
			fmt.Fprintf(out, "wal: recovered %s\n", st.Stats())
		}
	}
	if s == nil {
		var err error
		if f, s, err = fresh(); err != nil {
			return nil, err
		}
	}
	g := f.Graph()
	if st != nil {
		st.Attach(f, s)
	}
	if chaosLive {
		s.SetMatchHook(plan.MatchHook())
	}

	su.banner(out, cfg, g, len(jobs))
	if plan != nil && plan.Active() {
		mode := "defended"
		if cfg.ChaosDry {
			mode = "dry (defense-free parity baseline)"
		}
		fmt.Fprintf(out, "chaos: %s mode=%s\n", plan, mode)
	}

	l := &looper{s: s, jobs: jobs, out: out, max: cfg.MaxSteps}
	if chaosLive && plan.MalformedFrac > 0 {
		l.spec = func(j trace.Job) *jobspec.Jobspec {
			if plan.Malformed(j.ID) {
				return plan.MalformedSpec(j.ID)
			}
			return j.Jobspec()
		}
	}
	if recovered {
		// Skip the trace prefix the recovered state already ingested.
		// Arrival batches commit atomically, so ingestion is a prefix of
		// the trace — but rejected submits (malformed specs, overload)
		// leave holes in it, so resume after the LAST present job.
		// Trailing rejected arrivals of an executed batch are re-offered
		// and rejected again, which is state-neutral.
		for i, j := range jobs {
			if _, ok := s.Job(j.ID); ok {
				l.i = i + 1
			}
		}
		fmt.Fprintf(out, "wal: resuming at t=%d with %d of %d arrivals ingested\n",
			s.Now(), l.i, len(jobs))
	}
	var inj *injector
	if cfg.MTBF > 0 {
		inj = newInjector(s, cfg.FaultSeed, cfg.MTBF, cfg.MTTR)
		inj.more = func() bool { return l.i < len(l.jobs) || s.Unfinished() > 0 }
		if !recovered {
			// Seed each node's first failure as one journal command; a
			// recovered run's pending events travel in the checkpoint and
			// replay, and future delays are pure functions of (seed, node,
			// time), so the fault timeline continues exactly.
			var ierr error
			s.Atomic(func() { ierr = inj.start(g) })
			if ierr != nil {
				return nil, ierr
			}
		}
		fmt.Fprintf(out, "faults: seed=%d mtbf=%ds mttr=%ds over %d nodes\n",
			cfg.FaultSeed, cfg.MTBF, cfg.MTTR, len(g.ByType("node")))
	}

	start := time.Now()
	var cp *drillCheckpoint
	if cfg.Drill {
		// Pause midway — after roughly half the jobs' worth of events —
		// and snapshot both state layers at the same instant.
		trigger := (len(jobs) + 1) / 2
		if err := l.drive(func() bool { return l.steps >= trigger }); err != nil {
			return nil, err
		}
		if l.i < len(jobs) || s.HasEvents() {
			cp = &drillCheckpoint{i: l.i, steps: l.steps}
			var err error
			if cp.resource, err = f.Checkpoint(); err != nil {
				return nil, err
			}
			if cp.sched, err = s.Checkpoint(); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "drill: checkpoint at t=%d (%d arrivals in, %d events done)\n",
				s.Now(), cp.i, cp.steps)
		}
	}
	if err := l.drive(nil); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	if cfg.Timeline {
		printTimeline(out, s, jobs)
	}
	m := s.Metrics()
	fmt.Fprintf(out, "metrics: %s\n", m)
	if inj != nil {
		fmt.Fprintf(out, "faults injected: downs=%d ups=%d\n", inj.downs, inj.ups)
	}
	ss := s.Stats()
	fmt.Fprintf(out, "sched: %d cycles, %d match attempts, %d woken, %d skipped\n",
		ss.Cycles, ss.MatchAttempts, ss.WokenJobs, ss.SkippedJobs)
	if cfg.Defense != nil {
		fmt.Fprintf(out, "defense: quarantined=%d degraded=%d overload-rejects=%d invalid-rejects=%d level=%d\n",
			ss.Quarantined, ss.DegradedCycles, ss.OverloadRejects, ss.InvalidSpecRejects, s.DefenseLevel())
	}
	fmt.Fprintf(out, "wall: %v for %d scheduling cycles\n", wall.Round(time.Millisecond), s.Cycles)

	res := &Result{Completed: m.Completed, Metrics: m, Scheduler: s, Fluxion: f}
	if st != nil {
		res.Recovered = recovered
		res.Recovery = st.Stats()
		if err := st.Close(); err != nil {
			fmt.Fprintf(out, "wal: %v\n", err)
		}
		res.WALDegraded = st.Degraded()
	}
	if cp != nil {
		res.DrillRan = true
		var err error
		res.DrillOK, err = runDrill(cfg, su, jobs, cp, s, out)
		if err != nil {
			return nil, err
		}
		if !res.DrillOK {
			fmt.Fprintf(out, "drill: FAIL — resumed run diverged from the uninterrupted run\n")
		} else {
			fmt.Fprintf(out, "drill: PASS — resumed run converged to the same terminal state\n")
		}
	} else if cfg.Drill {
		fmt.Fprintf(out, "drill: skipped — run drained before the checkpoint trigger\n")
	}
	return res, nil
}

// drillCheckpoint is the paired mid-run snapshot: resource-graph state
// (allocations, statuses) and scheduler state (queue, clock, events).
type drillCheckpoint struct {
	resource []byte
	sched    []byte
	i, steps int
}

// runDrill rebuilds scheduler + store from the checkpoint, replays the
// remainder of the trace on the rebuilt instance, and compares every
// job's terminal state against the uninterrupted run.
func runDrill(cfg Config, su schedSetup, jobs []trace.Job,
	cp *drillCheckpoint, orig *sched.Scheduler, out io.Writer) (bool, error) {
	f2, err := fluxion.Restore(cp.resource,
		fluxion.WithPolicy(cfg.MatchPolicy),
		fluxion.WithPruneSpec(su.prune),
		fluxion.WithHorizon(simHorizon))
	if err != nil {
		return false, fmt.Errorf("simcli: drill restore: %w", err)
	}
	specs := make(map[int64]*jobspec.Jobspec, len(jobs))
	for _, j := range jobs {
		specs[j.ID] = j.Jobspec()
	}
	s2, err := sched.Resume(f2.Traverser(), cp.sched, specs, su.opts...)
	if err != nil {
		return false, fmt.Errorf("simcli: drill resume: %w", err)
	}
	if cfg.Chaos.Active() && !cfg.ChaosDry {
		// Re-arm the fault streams: jobs poisoned after the checkpoint
		// must poison identically in the resumed run.
		s2.SetMatchHook(cfg.Chaos.MatchHook())
	}
	l2 := &looper{s: s2, jobs: jobs, i: cp.i, steps: cp.steps, out: io.Discard, max: cfg.MaxSteps}
	if cfg.Chaos.Active() && !cfg.ChaosDry && cfg.Chaos.MalformedFrac > 0 {
		l2.spec = func(j trace.Job) *jobspec.Jobspec {
			if cfg.Chaos.Malformed(j.ID) {
				return cfg.Chaos.MalformedSpec(j.ID)
			}
			return j.Jobspec()
		}
	}
	if cfg.MTBF > 0 {
		// Re-attach a fresh injector; pending node events were restored
		// from the checkpoint and future delays are pure functions of
		// (seed, node, time), so the fault timeline replays exactly.
		inj := newInjector(s2, cfg.FaultSeed, cfg.MTBF, cfg.MTTR)
		inj.more = func() bool { return l2.i < len(l2.jobs) || s2.Unfinished() > 0 }
	}
	if err := l2.drive(nil); err != nil {
		return false, err
	}

	a, b := orig.Jobs(), s2.Jobs()
	if len(a) != len(b) {
		fmt.Fprintf(out, "drill: job count %d vs %d\n", len(a), len(b))
		return false, nil
	}
	ok := true
	for id, ja := range a {
		jb, exists := b[id]
		if !exists {
			fmt.Fprintf(out, "drill: job %d missing after resume\n", id)
			ok = false
			continue
		}
		if ja.State != jb.State || ja.StartAt != jb.StartAt || ja.EndAt != jb.EndAt {
			fmt.Fprintf(out, "drill: job %d diverged: %v@[%d,%d] vs %v@[%d,%d]\n",
				id, ja.State, ja.StartAt, ja.EndAt, jb.State, jb.StartAt, jb.EndAt)
			ok = false
		}
	}
	ma, mb := orig.Metrics(), s2.Metrics()
	if ma.Requeues != mb.Requeues || ma.LostCoreSeconds != mb.LostCoreSeconds || ma.Failed != mb.Failed {
		fmt.Fprintf(out, "drill: metrics diverged: %s vs %s\n", ma, mb)
		ok = false
	}
	return ok, nil
}

func printTimeline(out io.Writer, s interface {
	Job(int64) (*sched.Job, bool)
}, jobs []trace.Job) {
	ids := make([]int64, 0, len(jobs))
	for _, j := range jobs {
		ids = append(ids, j.ID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	fmt.Fprintf(out, "%6s %8s %10s %10s %10s %8s %s\n", "job", "nodes", "submit", "start", "end", "wait", "state")
	for _, id := range ids {
		job, ok := s.Job(id)
		if !ok {
			continue
		}
		nodes := int64(0)
		if job.Alloc != nil {
			nodes = int64(len(job.Alloc.Nodes()))
		}
		wait := job.StartAt - job.Submit
		if job.State != sched.StateCompleted && job.State != sched.StateRunning {
			wait = 0
		}
		fmt.Fprintf(out, "%6d %8d %10d %10d %10d %8d %s\n",
			id, nodes, job.Submit, job.StartAt, job.EndAt, wait, job.State)
	}
}
