package simcli

import (
	"fmt"
	"io"
	"time"

	"fluxion/internal/grug"
	"fluxion/internal/shard"
	"fluxion/internal/trace"
)

// runSharded replays the trace through the partitioned scheduler: the
// same looper drives the sharded router's lockstep event loop instead of
// a flat scheduler. Reporting mirrors the flat run — plus the router's
// placement counters — so decision/metric lines diff cleanly between
// `-shards 1` and `-shards N` runs of the same trace.
func runSharded(cfg Config, jobs []trace.Job, out io.Writer) (*Result, error) {
	switch {
	case cfg.WALDir != "":
		return nil, fmt.Errorf("simcli: sharded runs are WAL-free (drop -wal-dir or -shards)")
	case cfg.Drill:
		return nil, fmt.Errorf("simcli: the crash-recovery drill requires a flat scheduler (drop -drill or -shards)")
	case cfg.MTBF > 0 || cfg.MTTR > 0:
		return nil, fmt.Errorf("simcli: fault injection requires a flat scheduler (drop -mtbf/-mttr or -shards)")
	case cfg.Chaos.Active() || (cfg.Chaos != nil && cfg.Chaos.Storage != nil):
		return nil, fmt.Errorf("simcli: job-level and storage chaos require a flat scheduler (drop chaos flags or -shards)")
	}
	// Shard-level chaos is a sharded-run feature: the plan's kill/stall
	// hook feeds the supervisor's cycle fences. A dry run ignores the
	// plan — the clean twin a chaos run's surviving jobs are diffed
	// against.
	plan := cfg.Chaos
	shardChaos := plan.ShardActive() && !cfg.ChaosDry
	sup := cfg.ShardSupervisor
	if shardChaos && sup == nil {
		sup = &shard.SupervisorConfig{}
	}
	su := cfg.setup()
	g, err := grug.BuildGraph(cfg.Recipe, 0, simHorizon, su.prune)
	if err != nil {
		return nil, err
	}
	cut := cfg.ShardCut
	if cut == "" {
		cut = shard.DefaultCutType
	}
	sh, err := shard.New(shard.Config{
		Graph:       g,
		Shards:      cfg.Shards,
		CutType:     cut,
		MatchPolicy: cfg.MatchPolicy,
		Queue:       su.queue,
		SchedOpts:   su.opts,
		Supervisor:  sup,
	})
	if err != nil {
		return nil, err
	}
	if shardChaos {
		sh.SetCycleHook(plan.ShardHook())
	}

	su.banner(out, cfg, g, len(jobs))
	fmt.Fprintf(out, "shards: %d cut=%s\n", cfg.Shards, cut)
	if plan.ShardActive() {
		mode := "supervised"
		if cfg.ChaosDry {
			mode = "dry (supervision-free clean twin)"
		}
		fmt.Fprintf(out, "chaos: %s mode=%s\n", plan, mode)
	}

	l := &looper{s: sh, jobs: jobs, out: out, max: cfg.MaxSteps}
	start := time.Now()
	if err := l.drive(nil); err != nil {
		return nil, err
	}
	wall := time.Since(start)

	if cfg.Timeline {
		printTimeline(out, sh, jobs)
	}
	m := sh.Metrics()
	fmt.Fprintf(out, "metrics: %s\n", m)
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
	ss := sh.Stats()
	fmt.Fprintf(out, "sched: %d cycles, %d match attempts, %d woken, %d skipped\n",
		ss.Cycles, ss.MatchAttempts, ss.WokenJobs, ss.SkippedJobs)
	fmt.Fprintf(out, "wall: %v for %d scheduling cycles\n", wall.Round(time.Millisecond), sh.Cycles())

	return &Result{Completed: m.Completed, Metrics: m, Sharded: sh}, nil
}
