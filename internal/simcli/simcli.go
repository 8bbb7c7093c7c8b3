// Package simcli implements the fluxion-sim driver: it replays a job
// trace through the queuing scheduler on a GRUG-generated system and
// reports the per-job timeline plus run metrics. It is the command-line
// face of internal/sched, factored out of cmd/fluxion-sim for testing.
//
// Beyond plain replay it supports seeded per-node fault injection
// (exponential MTBF/MTTR, deterministic for a given seed), durable runs
// that journal to a write-ahead log and recover a crashed run's state,
// and a crash-recovery drill that stops a second replay midway, recovers
// it through a temporary WAL, and verifies the recovered run converges
// to the same terminal state as the uninterrupted one.
package simcli

import (
	"fmt"
	"io"
	"os"
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
	// Drill replays the trace twice more after the report, against a
	// WAL in a temporary directory: once stopped midway, once recovering
	// that directory and running to the end. The recovered run must reach
	// the same terminal state as the uninterrupted one.
	Drill bool

	// Shards > 1 runs the sharded scheduler (internal/shard): the graph
	// is partitioned into subtree shards cut at ShardCut, each with its
	// own scheduler loop behind a residue-routing root with work
	// stealing. Sharded runs are in-memory only: WAL durability, the
	// crash drill, fault injection, and job-level chaos are
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
	// WALKeepAll retains every WAL segment and snapshot instead of
	// compacting (archival mode; the crash drill truncates the full
	// history at every record boundary).
	WALKeepAll bool

	// Chaos is one seeded plan of the hostile-job streams (match panics,
	// slow matches, malformed specs) and shard kills/stalls (sharded runs
	// only); node faults are MTBF/MTTR above. When the plan injects
	// job-level faults the scheduler self-defense layer auto-enables
	// unless ChaosDry is set; when it injects shard faults the shard
	// supervisor auto-enables likewise.
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
	// DrillRan/DrillOK report the crash-recovery drill (Config.Drill);
	// DrillRan is false when the run ended before the drill's stop.
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
// sched options (flat and sharded schedulers share it).
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

// loopTarget is the discrete-event scheduler surface the looper drives
// and the report reads, implemented by both *sched.Scheduler and
// *shard.Sharded.
type loopTarget interface {
	Now() int64
	HasEvents() bool
	NextEventAt() int64
	AdvanceTo(int64) error
	Step() bool
	Schedule()
	SubmitPriority(int64, *jobspec.Jobspec, int) (*sched.Job, error)
	Atomic(func())
	Job(int64) (*sched.Job, bool)
	Metrics() sched.Metrics
	Stats() sched.Stats
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

// drive advances the simulation until arrivals and events drain, or
// until max event steps when max is positive.
func (l *looper) drive() error {
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
	}
	return nil
}

// Run replays the trace and writes a report to out; with cfg.Drill set
// it then runs the crash-recovery drill (see drill).
func Run(cfg Config, jobs []trace.Job, out io.Writer) (*Result, error) {
	res, l, err := run(cfg, jobs, out)
	if err == nil && cfg.Drill {
		res.DrillRan, res.DrillOK, err = drill(cfg, l.jobs, res.Scheduler, out)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// run is one replay, flat or sharded: it builds the scheduler (a flat
// one is recovered from cfg.WALDir when that holds a crashed run's
// state), drives the trace through it and prints the report. The looper
// comes back too, so the drill can tell whether work remained.
func run(cfg Config, jobs []trace.Job, out io.Writer) (*Result, *looper, error) {
	plan := cfg.Chaos
	sharded := cfg.Shards > 1
	var err error
	switch {
	case cfg.Recipe == nil:
		err = fmt.Errorf("simcli: recipe is required")
	case !sharded && plan.ShardActive():
		err = fmt.Errorf("simcli: shard chaos requires a sharded run (-shards > 1)")
	case sharded && cfg.WALDir != "":
		err = fmt.Errorf("simcli: sharded runs are WAL-free (drop -wal-dir or -shards)")
	case sharded && cfg.Drill:
		err = fmt.Errorf("simcli: the crash-recovery drill requires a flat scheduler (drop -drill or -shards)")
	case sharded && (cfg.MTBF > 0 || cfg.MTTR > 0):
		err = fmt.Errorf("simcli: fault injection requires a flat scheduler (drop -mtbf/-mttr or -shards)")
	case sharded && plan.Active():
		err = fmt.Errorf("simcli: job-level chaos requires a flat scheduler (drop chaos flags or -shards)")
	case (cfg.MTBF > 0) != (cfg.MTTR > 0):
		err = fmt.Errorf("simcli: MTBF and MTTR must be set together")
	}
	if err != nil {
		return nil, nil, err
	}
	if plan != nil && cfg.ChaosDry {
		// Parity baseline: the poisoned set never existed.
		jobs = plan.FilterTrace(jobs)
	}
	jobChaos := plan.Active() && !cfg.ChaosDry
	if jobChaos && cfg.Defense == nil {
		// Hostile jobs are incoming: enable the self-defense layer with
		// defaults (fences and quarantine active; deadline, watchdog, and
		// backpressure stay off until tuned).
		cfg.Defense = &sched.DefenseConfig{}
	}
	su := cfg.setup()
	res := &Result{}
	l := &looper{jobs: jobs, out: out, max: cfg.MaxSteps}
	var g *resgraph.Graph
	var st *durable.Store
	if sharded {
		if g, err = grug.BuildGraph(cfg.Recipe, 0, simHorizon, su.prune); err != nil {
			return nil, nil, err
		}
		if cfg.ShardCut == "" {
			cfg.ShardCut = shard.DefaultCutType
		}
		// Shard-level chaos feeds the supervisor's cycle fences; a dry
		// run ignores the plan (the clean twin a chaos run is diffed
		// against).
		shardChaos := plan.ShardActive() && !cfg.ChaosDry
		sup := cfg.ShardSupervisor
		if shardChaos && sup == nil {
			sup = &shard.SupervisorConfig{}
		}
		sh, err := shard.New(shard.Config{
			Graph:       g,
			Shards:      cfg.Shards,
			CutType:     cfg.ShardCut,
			MatchPolicy: cfg.MatchPolicy,
			Queue:       su.queue,
			SchedOpts:   su.opts,
			Supervisor:  sup,
		})
		if err != nil {
			return nil, nil, err
		}
		if shardChaos {
			sh.SetCycleHook(plan.ShardHook())
		}
		res.Sharded, l.s = sh, sh
	} else {
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
		if cfg.WALDir != "" {
			st, err = durable.Open(durable.Options{
				Dir:           cfg.WALDir,
				SyncInterval:  cfg.WALSyncInterval,
				SnapshotEvery: cfg.SnapshotEvery,
				KeepAll:       cfg.WALKeepAll,
				Warn:          out,
			})
			if err != nil {
				return nil, nil, err
			}
			defer st.Close()
			res.Recovered = st.Recovered()
		}
		var f *fluxion.Fluxion
		var s *sched.Scheduler
		if res.Recovered {
			f, s, err = st.Restore(fresh, []fluxion.Option{
				fluxion.WithPolicy(cfg.MatchPolicy),
				fluxion.WithPruneSpec(su.prune),
				fluxion.WithHorizon(simHorizon),
			}, su.opts)
			if err != nil {
				return nil, nil, fmt.Errorf("simcli: wal recovery: %w", err)
			}
			fmt.Fprintf(out, "wal: recovered %s\n", st.Stats())
		} else if f, s, err = fresh(); err != nil {
			return nil, nil, err
		}
		if st != nil {
			st.Attach(f, s)
		}
		if jobChaos {
			s.SetMatchHook(plan.MatchHook())
		}
		g = f.Graph()
		res.Fluxion, res.Scheduler, l.s = f, s, s
	}

	mp := cfg.MatchPolicy
	if mp == "" {
		mp = "first"
	}
	fmt.Fprintf(out, "system: %s\n", g.Stats())
	fmt.Fprintf(out, "policies: match=%s queue=%s; %d jobs\n", mp, su.queue, len(jobs))
	if sharded {
		fmt.Fprintf(out, "shards: %d cut=%s\n", cfg.Shards, cfg.ShardCut)
	}
	if plan.Active() || plan.ShardActive() {
		mode := "defended"
		switch {
		case sharded && cfg.ChaosDry:
			mode = "dry (supervision-free clean twin)"
		case sharded:
			mode = "supervised"
		case cfg.ChaosDry:
			mode = "dry (defense-free parity baseline)"
		}
		fmt.Fprintf(out, "chaos: %s mode=%s\n", plan, mode)
	}

	if jobChaos && plan.MalformedFrac > 0 {
		l.spec = func(j trace.Job) *jobspec.Jobspec {
			if plan.Malformed(j.ID) {
				return plan.MalformedSpec(j.ID)
			}
			return j.Jobspec()
		}
	}
	s := res.Scheduler
	if res.Recovered {
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
		if !res.Recovered {
			// Seed each node's first failure as one journal command; a
			// recovered run's pending events travel in the checkpoint and
			// replay, and future delays are pure functions of (seed, node,
			// time), so the fault timeline continues exactly.
			var ierr error
			s.Atomic(func() { ierr = inj.start(g) })
			if ierr != nil {
				return nil, nil, ierr
			}
		}
		fmt.Fprintf(out, "faults: seed=%d mtbf=%ds mttr=%ds over %d nodes\n",
			cfg.FaultSeed, cfg.MTBF, cfg.MTTR, len(g.ByType("node")))
	}

	start := time.Now()
	if err := l.drive(); err != nil {
		return nil, nil, err
	}
	wall := time.Since(start)

	if cfg.Timeline {
		printTimeline(out, l.s, jobs)
	}
	m := l.s.Metrics()
	fmt.Fprintf(out, "metrics: %s\n", m)
	if inj != nil {
		fmt.Fprintf(out, "faults injected: downs=%d ups=%d\n", inj.downs, inj.ups)
	}
	var cycles int
	if sh := res.Sharded; sh != nil {
		rs := sh.RouterStats()
		fmt.Fprintf(out, "router: routed=%d rerouted=%d steals=%d unroutable=%d\n",
			rs.Routed, rs.Rerouted, rs.Steals, rs.Unroutable)
		if sh.Supervised() {
			sst := sh.SupervisorStats()
			fmt.Fprintf(out, "supervisor: trips=%d deadline-misses=%d failures=%d recoveries=%d drained=%d evicted=%d lost=%d\n",
				sst.Trips, sst.DeadlineMisses, sst.Failures, sst.Recoveries, sst.Drained, sst.Evicted, sst.Lost)
			for _, ev := range sh.HealthEvents() {
				fmt.Fprintf(out, "supervisor event: %s\n", ev)
			}
		}
		cycles = sh.Cycles()
	}
	ss := l.s.Stats()
	fmt.Fprintf(out, "sched: %d cycles, %d match attempts, %d woken, %d skipped\n",
		ss.Cycles, ss.MatchAttempts, ss.WokenJobs, ss.SkippedJobs)
	if s != nil {
		if cfg.Defense != nil {
			fmt.Fprintf(out, "defense: quarantined=%d degraded=%d overload-rejects=%d invalid-rejects=%d level=%d\n",
				ss.Quarantined, ss.DegradedCycles, ss.OverloadRejects, ss.InvalidSpecRejects, s.DefenseLevel())
		}
		cycles = s.Cycles
	}
	fmt.Fprintf(out, "wall: %v for %d scheduling cycles\n", wall.Round(time.Millisecond), cycles)

	res.Completed, res.Metrics = m.Completed, m
	if st != nil {
		res.Recovery = st.Stats()
		if err := st.Close(); err != nil {
			fmt.Fprintf(out, "wal: %v\n", err)
		}
		res.WALDegraded = st.Degraded()
	}
	return res, l, nil
}

// drill checks crash recovery through the WAL path durable runs use. It
// replays the trace twice more without output, against a WAL in a
// temporary directory: the first replay stops after half the jobs' worth
// of events (closing its store snapshots that instant), the second
// recovers the directory and runs to the end. The recovered run must
// match orig, the uninterrupted run, in every job's state, start and end
// and in the requeue, lost-core and failed counts. ran is false when the
// run ends before the stop.
func drill(cfg Config, jobs []trace.Job, orig *sched.Scheduler, out io.Writer) (ran, ok bool, err error) {
	half, bound := (len(jobs)+1)/2, cfg.MaxSteps
	skip := bound > 0 && bound <= half
	dir, err := os.MkdirTemp("", "fluxion-drill-")
	if err != nil {
		return false, false, err
	}
	defer os.RemoveAll(dir)
	cfg.Drill, cfg.Timeline, cfg.WALDir, cfg.WALKeepAll, cfg.MaxSteps = false, false, dir, false, half
	var l *looper
	if !skip {
		if _, l, err = run(cfg, jobs, io.Discard); err != nil {
			return false, false, err
		}
		skip = l.i == len(l.jobs) && !l.s.HasEvents()
	}
	if skip {
		fmt.Fprintf(out, "drill: skipped — run drained before the checkpoint trigger\n")
		return false, false, nil
	}
	cfg.MaxSteps = max(bound-half, 0)
	res, _, err := run(cfg, jobs, io.Discard)
	if err != nil {
		return false, false, err
	}
	fmt.Fprintf(out, "drill: stopped at t=%d (%d arrivals in, %d events done), recovered replaying %d WAL records\n",
		l.s.Now(), l.i, l.steps, res.Recovery.RecordsReplayed)

	ok = res.Recovered
	a, b := orig.Jobs(), res.Scheduler.Jobs()
	if len(a) != len(b) {
		fmt.Fprintf(out, "drill: job count %d vs %d\n", len(a), len(b))
		ok = false
	}
	for id, ja := range a {
		jb, exists := b[id]
		if !exists {
			fmt.Fprintf(out, "drill: job %d missing after recovery\n", id)
			ok = false
			continue
		}
		if ja.State != jb.State || ja.StartAt != jb.StartAt || ja.EndAt != jb.EndAt {
			fmt.Fprintf(out, "drill: job %d diverged: %v@[%d,%d] vs %v@[%d,%d]\n",
				id, ja.State, ja.StartAt, ja.EndAt, jb.State, jb.StartAt, jb.EndAt)
			ok = false
		}
	}
	ma, mb := orig.Metrics(), res.Metrics
	if ma.Requeues != mb.Requeues || ma.LostCoreSeconds != mb.LostCoreSeconds || ma.Failed != mb.Failed {
		fmt.Fprintf(out, "drill: metrics diverged: %s vs %s\n", ma, mb)
		ok = false
	}
	if ok {
		fmt.Fprintf(out, "drill: PASS — recovered run converged to the same terminal state\n")
	} else {
		fmt.Fprintf(out, "drill: FAIL — recovered run diverged from the uninterrupted run\n")
	}
	return true, ok, nil
}

func printTimeline(out io.Writer, s loopTarget, jobs []trace.Job) {
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
