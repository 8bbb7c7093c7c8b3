package fluxion

import (
	"fluxion/internal/sched"
	"fluxion/internal/shard"
)

// Sharded is the partitioned scheduler: N independent shard scheduler
// loops over subtree partitions of the cluster graph, behind a thin
// residue-routing root with work stealing (see internal/shard). It
// mirrors the sched.Scheduler driver surface, so simulation drivers can
// swap it in for a flat scheduler.
type Sharded = shard.Sharded

// QueuePolicy selects how each shard plans its pending queue.
type QueuePolicy = sched.QueuePolicy

// Queue policies, re-exported so external callers can name them in
// NewSharded without reaching into internal packages.
const (
	FCFS         = sched.FCFS
	EASY         = sched.EASY
	Conservative = sched.Conservative
)

// ShardRouterStats counts the sharded router's placement work.
type ShardRouterStats = shard.RouterStats

// DefenseConfig configures the scheduler self-defense layer: match panic
// fences, poison-job quarantine, the cycle watchdog's degradation
// ladder, and admission backpressure (see internal/sched).
type DefenseConfig = sched.DefenseConfig

// Shard supervision surface, re-exported for operators driving a
// Sharded through the public API (see internal/shard): the per-shard
// health state machine, its transition log, and the failover counters.
type (
	// ShardSupervisorConfig configures shard supervision: cycle fences
	// and deadlines, suspicion/failure thresholds, probe backoff, and
	// the grace window for a failed shard's running jobs.
	ShardSupervisorConfig = shard.SupervisorConfig
	// ShardHealth is a shard's supervision state (healthy, suspect,
	// failed, recovering).
	ShardHealth = shard.Health
	// ShardHealthEvent is one health transition in the supervisor log.
	ShardHealthEvent = shard.HealthEvent
	// ShardSupervisorStats counts supervision work: fence trips,
	// deadline misses, failures, recoveries, drained/evicted/lost jobs.
	ShardSupervisorStats = shard.SupervisorStats
)

// Shard health states, re-exported from internal/shard.
const (
	ShardHealthy    = shard.Healthy
	ShardSuspect    = shard.Suspect
	ShardFailed     = shard.Failed
	ShardRecovering = shard.Recovering
)

// WithShardCut sets the containment type sharded scheduling cuts the
// graph at (default "rack"). Only NewSharded consults it.
func WithShardCut(cutType string) Option {
	return func(c *config) error { c.shardCut = cutType; return nil }
}

// WithDefense enables the scheduler self-defense layer. Only NewSharded
// consults it (flat schedulers built through internal/sched take
// sched.WithDefense directly); it applies to every shard's scheduler
// loop.
func WithDefense(cfg DefenseConfig) Option {
	return func(c *config) error { c.defense = &cfg; return nil }
}

// WithShardSupervisor enables shard supervision and failover: every
// shard cycle runs behind a panic fence and cycle deadline, consecutive
// faults quarantine the shard (jobs drain to survivors, running work is
// awaited or evicted), and recovery probes or Reabsorb rebuild it from
// its partition. The zero ShardSupervisorConfig selects the defaults.
// Only NewSharded consults it.
func WithShardSupervisor(cfg ShardSupervisorConfig) Option {
	return func(c *config) error { c.shardSup = &cfg; return nil }
}

// NewSharded builds a sharded scheduler from the same store options New
// takes: the configured source graph is partitioned into `shards`
// subtree shards cut at the WithShardCut type (racks by default), each
// running its own scheduler loop under the configured match policy, with
// jobs placed by per-shard aggregate residues and rebalanced by work
// stealing. The queue policy applies per shard. WithDefense and
// WithShardSupervisor layer per-job and per-shard fault containment on
// top.
//
// With shards == 1 the result is decision-identical to a flat
// scheduler over the same graph; larger counts trade a quantified
// decision-quality cost for near-linear submit-to-decision throughput
// scaling (see DESIGN.md §13; §14 covers supervision and failover).
func NewSharded(shards int, queue sched.QueuePolicy, opts ...Option) (*Sharded, error) {
	c, g, err := storeFromOptions(opts...)
	if err != nil {
		return nil, err
	}
	var sopts []sched.SchedOption
	if c.defense != nil {
		sopts = append(sopts, sched.WithDefense(*c.defense))
	}
	return shard.New(shard.Config{
		Graph:       g,
		Shards:      shards,
		CutType:     c.shardCut,
		MatchPolicy: c.policy,
		Queue:       queue,
		SchedOpts:   sopts,
		Supervisor:  c.shardSup,
	})
}
