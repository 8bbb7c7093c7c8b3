// fluxion-sim replays a job trace through the Fluxion scheduler on a
// GRUG-generated system and reports the timeline and run metrics:
//
//	fluxion-sim -preset quartz -synth 200 -queue conservative -timeline
//	fluxion-sim -grug cluster.yaml -trace jobs.jsonl -match variation
//
// Traces are JSONL (see internal/trace); -synth generates a synthetic
// queue snapshot instead. Use -write-trace to save the synthetic trace
// for reuse.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fluxion/internal/chaos"
	"fluxion/internal/grug"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/shard"
	"fluxion/internal/simcli"
	"fluxion/internal/trace"
)

func main() {
	var (
		grugFile   = flag.String("grug", "", "GRUG recipe file")
		preset     = flag.String("preset", "", "built-in recipe: high | med | low | low2 | quartz | small | small4")
		traceFile  = flag.String("trace", "", "JSONL trace file")
		synth      = flag.Int("synth", 0, "generate a synthetic queue snapshot of N jobs instead of -trace")
		maxNodes   = flag.Int64("synth-max-nodes", 256, "largest synthetic job")
		cores      = flag.Int64("synth-cores", 36, "cores per node in synthetic jobs")
		seed       = flag.Int64("seed", 2023, "synthetic trace seed")
		writeTrace = flag.String("write-trace", "", "save the (synthetic) trace to this file")
		matchPol   = flag.String("match", "first", "match policy: first | high | low | locality | variation")
		queuePol   = flag.String("queue", "conservative", "queue policy: fcfs | easy | conservative")
		queueDepth = flag.Int("queue-depth", 0, "plan at most N pending jobs per cycle (0 = all)")
		matchWork  = flag.Int("match-workers", 1, "parallel match workers per cycle (1 = sequential)")
		prune      = flag.String("prune", "ALL:core,ALL:node", "pruning filter spec")
		timeline   = flag.Bool("timeline", false, "print the per-job timeline")
		mtbf       = flag.Int64("mtbf", 0, "mean seconds between node failures (0 = no fault injection)")
		mttr       = flag.Int64("mttr", 0, "mean seconds to repair a failed node")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injection seed; same seed, same failures")
		maxRetries = flag.Int("max-retries", 0, "failure requeues per job before it fails (0 = default)")
		drill      = flag.Bool("drill", false, "run the crash-recovery drill: checkpoint mid-run, restore, verify convergence")
		shards     = flag.Int("shards", 1, "partition the graph into N subtree shards, each with its own scheduler loop (1 = flat)")
		shardCut   = flag.String("shard-cut", "rack", "containment type sharding cuts the graph at")
		walDir     = flag.String("wal-dir", "", "durable state directory: journal every mutation to a write-ahead log and recover prior state on start")
		walSync    = flag.Duration("wal-sync-interval", 0, "WAL group-commit fsync cadence (0 = 10ms default; negative = fsync every command)")
		snapEvery  = flag.Int("snapshot-every", 0, "commands between WAL snapshots (0 = default 4096)")

		chaosSeed      = flag.Int64("chaos-seed", 1, "chaos schedule seed; same seed, same faults")
		chaosPanics    = flag.Float64("chaos-panics", 0, "fraction of jobs whose match attempts panic")
		chaosSlow      = flag.Float64("chaos-slow", 0, "fraction of jobs whose match attempts stall")
		chaosSlowDelay = flag.Duration("chaos-slow-delay", time.Millisecond, "stall per slow match attempt")
		chaosMalformed = flag.Float64("chaos-malformed", 0, "fraction of jobs submitted with malformed specs")
		chaosDry       = flag.Bool("chaos-dry", false, "defense-free parity baseline: filter the chaos plan's poisoned jobs out of the trace and inject nothing")

		chaosShardKill  = flag.Float64("chaos-shard-kill", 0, "fraction of shards whose cycles panic (requires -shards > 1)")
		chaosShardStall = flag.Float64("chaos-shard-stall", 0, "fraction of shards whose cycles stall")
		chaosShardDelay = flag.Duration("chaos-shard-stall-delay", time.Millisecond, "stall per afflicted shard cycle")
		chaosShardFrom  = flag.Int64("chaos-shard-from", 0, "sim time the shard-fault window opens")
		chaosShardUntil = flag.Int64("chaos-shard-until", 0, "sim time the shard-fault window closes (0 = never)")
		shardGrace      = flag.Int64("shard-grace", 0, "seconds a failed shard's running jobs get before eviction (0 = default, negative = evict immediately)")
		defense         = flag.Bool("defense", true, "scheduler self-defense layer (panic fences, quarantine, watchdog, backpressure)")
		matchDeadline   = flag.Duration("match-deadline", 0, "quarantine a job when a failed match attempt exceeds this (0 = off)")
		cycleDeadline   = flag.Duration("cycle-deadline", 0, "cycle watchdog deadline driving the degradation ladder (0 = off)")
		conflictLimit   = flag.Int("conflict-limit", 0, "quarantine a job after N consecutive commit conflicts (0 = off)")
		admitHigh       = flag.Int("admit-high", 0, "refuse submits above this pending-queue depth (0 = off)")
		admitLow        = flag.Int("admit-low", 0, "re-admit below this depth (0 = admit-high/2)")
	)
	flag.Parse()

	var recipe *grug.Recipe
	switch {
	case *grugFile != "":
		data, err := os.ReadFile(*grugFile)
		fail(err)
		r, err := grug.ParseYAML(data)
		fail(err)
		recipe = r
	case *preset != "":
		switch *preset {
		case "high":
			recipe = grug.HighLOD()
		case "med":
			recipe = grug.MedLOD()
		case "low":
			recipe = grug.LowLOD()
		case "low2":
			recipe = grug.Low2LOD()
		case "quartz":
			recipe = grug.QuartzPaper()
		case "small":
			recipe = grug.Small(2, 4, 8, 32, 100)
		case "small4":
			// Four racks so sharded runs can cut 4 ways (-shards 4).
			recipe = grug.Small(4, 4, 8, 32, 100)
		default:
			fail(fmt.Errorf("unknown preset %q", *preset))
		}
	default:
		fmt.Fprintln(os.Stderr, "fluxion-sim: -grug or -preset is required")
		os.Exit(2)
	}

	var jobs []trace.Job
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		fail(err)
		jobs, err = trace.Read(f)
		_ = f.Close()
		fail(err)
	case *synth > 0:
		jobs = trace.Synthesize(*synth, *maxNodes, *cores, *seed)
	default:
		fmt.Fprintln(os.Stderr, "fluxion-sim: -trace or -synth is required")
		os.Exit(2)
	}
	if *writeTrace != "" {
		f, err := os.Create(*writeTrace)
		fail(err)
		fail(trace.Write(f, jobs))
		fail(f.Close())
		fmt.Printf("wrote %d jobs to %s\n", len(jobs), *writeTrace)
	}

	spec, err := resgraph.ParsePruneSpec(*prune)
	fail(err)
	var plan *chaos.Plan
	if *chaosPanics > 0 || *chaosSlow > 0 || *chaosMalformed > 0 ||
		*chaosShardKill > 0 || *chaosShardStall > 0 {
		plan = &chaos.Plan{
			Seed:            *chaosSeed,
			PanicFrac:       *chaosPanics,
			SlowFrac:        *chaosSlow,
			SlowDelay:       *chaosSlowDelay,
			MalformedFrac:   *chaosMalformed,
			ShardKillFrac:   *chaosShardKill,
			ShardStallFrac:  *chaosShardStall,
			ShardStallDelay: *chaosShardDelay,
			ShardFaultFrom:  *chaosShardFrom,
			ShardFaultUntil: *chaosShardUntil,
		}
	}
	var scfg *shard.SupervisorConfig
	if *shardGrace != 0 {
		scfg = &shard.SupervisorConfig{GraceSeconds: *shardGrace}
	}
	var dcfg *sched.DefenseConfig
	if *defense && !*chaosDry {
		dcfg = &sched.DefenseConfig{
			MatchDeadline: *matchDeadline,
			ConflictLimit: *conflictLimit,
			CycleDeadline: *cycleDeadline,
			AdmitHigh:     *admitHigh,
			AdmitLow:      *admitLow,
		}
	}
	res, err := simcli.Run(simcli.Config{
		Recipe:       recipe,
		PruneSpec:    spec,
		MatchPolicy:  *matchPol,
		QueuePolicy:  sched.QueuePolicy(*queuePol),
		QueueDepth:   *queueDepth,
		MatchWorkers: *matchWork,
		Timeline:     *timeline,
		MTBF:         *mtbf,
		MTTR:         *mttr,
		FaultSeed:    *faultSeed,
		MaxRetries:   *maxRetries,
		Drill:        *drill,
		Shards:       *shards,
		ShardCut:     *shardCut,

		WALDir:          *walDir,
		WALSyncInterval: *walSync,
		SnapshotEvery:   *snapEvery,

		Chaos:           plan,
		ChaosDry:        *chaosDry,
		Defense:         dcfg,
		ShardSupervisor: scfg,
	}, jobs, os.Stdout)
	fail(err)
	if res.DrillRan && !res.DrillOK {
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxion-sim:", err)
		os.Exit(1)
	}
}
