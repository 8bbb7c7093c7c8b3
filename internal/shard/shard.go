// Package shard implements sharded scheduling: the cluster graph is
// partitioned into N subtree shards (cut at a configurable containment
// level, racks by default), each shard runs its own independent
// incremental scheduler loop over its own slab graph and in-memory
// state, and a thin root router places every incoming job on a shard
// using per-shard aggregate residues — the SDFU filter/aggregate
// machinery lifted one level, kept fresh through each shard graph's
// delta sink.
//
// The decision loop stays discrete-event and lockstep: all shard clocks
// advance together, shards with events at the step instant run their
// cycles concurrently (their state is fully disjoint), and after every
// round a rebalancer work-steals still-pending jobs from saturated
// shards to shards whose residues fit them now.
//
// With one shard the router degenerates to a pass-through over a
// vertex-for-vertex clone of the flat graph, and the sharded scheduler
// is decision-identical to the flat one (property-tested in
// parity_test.go). With N shards, decision throughput scales with N —
// cycles run concurrently over graphs 1/N the size — at a
// decision-quality cost the bench's stream-easy-shard2 workload measures:
// cross-shard fragmentation can delay or strand jobs a flat scheduler
// would have placed.
//
// Shards are also the failure domains: with Config.Supervisor set every
// per-shard cycle runs behind a panic fence and cycle deadline feeding
// a per-shard health state machine, and a shard declared failed is
// quarantined — drained, excluded from routing, and later reabsorbed
// from a fresh partition (supervisor.go).
package shard

import (
	"fmt"
	"sync"

	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/traverser"
)

// DefaultCutType is the containment level shards are cut at.
const DefaultCutType = "rack"

// DefaultStealsPerRound bounds how many jobs one rebalance round moves.
const DefaultStealsPerRound = 8

// DefaultMaxStealsPerJob bounds how often a single job may be stolen,
// preventing ping-pong between saturated shards.
const DefaultMaxStealsPerJob = 2

// Config parameterizes New.
type Config struct {
	// Graph is the finalized flat cluster graph to partition. It is only
	// read (Partition clones it); the caller keeps ownership. The router
	// keeps a reference so a failed shard can be rebuilt from a fresh
	// partition at reabsorb time.
	Graph *resgraph.Graph
	// Shards is the partition width (>= 1).
	Shards int
	// CutType is the containment type units are cut at (default "rack").
	CutType string
	// MatchPolicy names the per-shard match policy (default "first").
	MatchPolicy string
	// Queue is the per-shard queue policy (default Conservative).
	Queue sched.QueuePolicy
	// SchedOpts apply to every shard scheduler (queue depth, retries,
	// sched.WithDefense…). Sharded runs are WAL-free; do not attach
	// journals to the shards.
	SchedOpts []sched.SchedOption
	// Supervisor enables the shard supervision layer: per-shard cycle
	// fences and deadlines, the health state machine, failover drains,
	// and reabsorption (see supervisor.go). Nil disables supervision and
	// cycles dispatch straight to the shard schedulers.
	Supervisor *SupervisorConfig
}

// RouterStats counts the router's placement work.
type RouterStats struct {
	// Routed counts jobs placed on a shard at submit.
	Routed int64
	// Rerouted counts submit-time overflows: the residue-ranked shard
	// declared the job unsatisfiable and the router moved on to the
	// next-best shard.
	Rerouted int64
	// Steals counts jobs the rebalancer moved between shards.
	Steals int64
	// Unroutable counts jobs no shard could ever fit (a job spanning
	// more than one shard's capacity is unsatisfiable under sharding;
	// this is part of the quantified quality cost of hierarchy).
	Unroutable int64
}

// retiredShard is the byJob sentinel for jobs whose owning scheduler was
// discarded at reabsorb time (their terminal records live in the
// supervisor's retired table) and for jobs lost to a shard failure.
const retiredShard = -1

// shardState is one partition: its graph, traverser, scheduler loop,
// the router-side residue/demand caches, and the supervisor-side health
// bookkeeping.
type shardState struct {
	idx int
	g   *resgraph.Graph
	tr  *traverser.Traverser
	s   *sched.Scheduler

	// cap is the shard's static aggregate capacity per resource type
	// (the root vertex's containment aggregates), fixed at build.
	cap map[string]int64

	// residue caches the shard root filter's free units per type at
	// residueAt; dirty is set from the shard graph's delta sink (any
	// free, claim, or structural delta invalidates the cache) and by
	// hand after every scheduling cycle (immediate allocations are
	// deliberately delta-silent). The cache is also keyed by the clock,
	// since availability is time-dependent even without deltas.
	residue   map[string]int64
	residueAt int64
	dirty     bool

	// queued is the aggregate resource demand of jobs routed here and
	// not yet running (pending + reserved), refreshed every rebalance
	// round and maintained incrementally between rounds.
	queued map[string]int64

	// Supervisor state (supervisor.go). health is Healthy (zero value)
	// when no supervisor is configured. cycled/tripped/slow are the
	// cycle outcome flags: written by the fenced cycle on whichever
	// goroutine ran it, consumed by supervise() after the cycle barrier.
	health     Health
	strikes    int   // consecutive bad cycles while Healthy
	probeFails int   // counted bad probe cycles while Suspect
	backoff    int   // rounds between counted probes, doubling per fail
	countdown  int   // rounds until the next counted probe
	graceUntil int64 // deadline to await a failed shard's running jobs
	awaiting   bool  // failed shard still awaiting running jobs
	cycled     bool  // ran a fenced cycle this round
	tripped    bool
	tripMsg    string
	slow       bool
}

// placeable reports whether the router may place new work on the shard:
// failed shards are excluded from residue scoring entirely, which is the
// root-view equivalent of marking their subtrees down.
func (st *shardState) placeable() bool { return st.health != Failed }

// eventful reports whether the lockstep driver still owes the shard
// event dispatch: live shards always, failed shards only while awaiting
// running jobs under the grace timeout. A failed shard past that is
// dark — its clock freezes until reabsorption rebuilds it.
func (st *shardState) eventful() bool { return st.health != Failed || st.awaiting }

// Sharded is N independent shard scheduler loops behind one
// residue-routing front door. It mirrors the sched.Scheduler driver
// surface (Submit/Schedule/Step/AdvanceTo/Run/Metrics) so drivers can
// swap it in for a flat scheduler.
//
// Public methods are safe for concurrent use: a single mutex serializes
// the driver surface (the concurrency is inside — shard cycles run in
// parallel under the lock). Discrete-event semantics still assume one
// logical driver advancing the clock; concurrent callers see a
// consistent snapshot between steps.
type Sharded struct {
	mu sync.Mutex

	shards []*shardState
	byJob  map[int64]int    // job ID -> owning shard (retiredShard = retired)
	routes map[int64]*route // job ID -> route record, same keys as byJob
	stats  RouterStats

	// cands is place's ranking scratch; moved marks the shards place
	// moved jobs to since the last catchUp.
	cands []cand
	moved []bool

	// Partition inputs, kept so reabsorption can rebuild a failed
	// shard's slab graph and scheduler from scratch.
	srcGraph    *resgraph.Graph
	cutType     string
	matchPolicy string
	schedOpts   []sched.SchedOption

	policy sched.QueuePolicy

	// sup is the supervision layer (nil = unsupervised cycles).
	sup *supervisor
}

// New partitions cfg.Graph and builds one incremental scheduler loop
// per shard.
func New(cfg Config) (*Sharded, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("shard: graph is required")
	}
	n := cfg.Shards
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d", n)
	}
	cut := cfg.CutType
	if cut == "" {
		cut = DefaultCutType
	}
	qp := cfg.Queue
	if qp == "" {
		qp = sched.Conservative
	}
	parts, err := cfg.Graph.Partition(cut, n)
	if err != nil {
		return nil, err
	}
	sh := &Sharded{
		shards:      make([]*shardState, n),
		byJob:       make(map[int64]int),
		routes:      make(map[int64]*route),
		moved:       make([]bool, n),
		srcGraph:    cfg.Graph,
		cutType:     cut,
		matchPolicy: cfg.MatchPolicy,
		schedOpts:   cfg.SchedOpts,
		policy:      qp,
	}
	if cfg.Supervisor != nil {
		sh.sup = newSupervisor(*cfg.Supervisor)
	}
	for k, g := range parts {
		st := &shardState{
			idx:     k,
			residue: make(map[string]int64),
			queued:  make(map[string]int64),
		}
		tr, s, err := sh.buildCore(g)
		if err != nil {
			return nil, err
		}
		st.attach(g, tr, s)
		sh.shards[k] = st
	}
	return sh, nil
}

// buildCore constructs a shard's traverser and scheduler over g from the
// router's recorded configuration — shared between New and reabsorption.
func (sh *Sharded) buildCore(g *resgraph.Graph) (*traverser.Traverser, *sched.Scheduler, error) {
	pol, err := match.Lookup(sh.matchPolicy)
	if err != nil {
		return nil, nil, err
	}
	tr, err := traverser.New(g, pol)
	if err != nil {
		return nil, nil, err
	}
	s, err := sched.New(tr, sh.policy, sh.schedOpts...)
	if err != nil {
		return nil, nil, err
	}
	return tr, s, nil
}

// attach wires a freshly built graph/traverser/scheduler triple into the
// shard slot: static capacity from the root aggregates, and the router's
// residue invalidation chained behind whatever delta sink sched.New
// installed (the incremental wakeup index). Delta publication is
// synchronous and per-graph, so the flag write happens on whichever
// goroutine runs this shard's cycle; the router reads it only after the
// cycle barrier.
func (st *shardState) attach(g *resgraph.Graph, tr *traverser.Traverser, s *sched.Scheduler) {
	st.g, st.tr, st.s = g, tr, s
	root := g.Root(resgraph.Containment)
	types := g.Types()
	st.cap = make(map[string]int64, 8)
	for id := int32(0); int(id) < types.Len(); id++ {
		if c := root.AggregateOf(id); c > 0 {
			st.cap[types.Name(id)] = c
		}
	}
	prev := g.DeltaSink()
	if prev == nil {
		g.SetDeltaSink(func(resgraph.Delta) { st.dirty = true })
	} else {
		g.SetDeltaSink(func(d resgraph.Delta) {
			prev(d)
			st.dirty = true
		})
	}
	clear(st.residue)
	clear(st.queued)
	st.residueAt = 0
	st.dirty = true
}

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// ShardScheduler exposes shard i's scheduler loop (tests, stats). The
// pointer is replaced when a failed shard is reabsorbed.
func (sh *Sharded) ShardScheduler(i int) *sched.Scheduler {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.shards[i].s
}

// RouterStats returns the router's cumulative placement counters.
func (sh *Sharded) RouterStats() RouterStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// Job returns a submitted job by ID, from whichever shard owns it —
// including terminal records retired from reabsorbed shards.
func (sh *Sharded) Job(id int64) (*sched.Job, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.job(id)
}

func (sh *Sharded) job(id int64) (*sched.Job, bool) {
	k, ok := sh.byJob[id]
	if !ok {
		return nil, false
	}
	if k == retiredShard {
		j, ok := sh.sup.retired[id]
		return j, ok
	}
	return sh.shards[k].s.Job(id)
}

// eachJob visits every job the router knows: live shard tables plus the
// retired records preserved across reabsorptions.
func (sh *Sharded) eachJob(fn func(*sched.Job)) {
	for _, st := range sh.shards {
		for _, j := range st.s.Jobs() {
			fn(j)
		}
	}
	if sh.sup != nil {
		for _, j := range sh.sup.retired {
			fn(j)
		}
	}
}

// Jobs returns a merged snapshot of every shard's job table (plus
// retired records from reabsorbed shards).
func (sh *Sharded) Jobs() map[int64]*sched.Job {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[int64]*sched.Job)
	sh.eachJob(func(j *sched.Job) { out[j.ID] = j })
	return out
}

// Atomic runs fn; sharded runs are journal-free, so there is no command
// unit to widen — the method exists so drivers written against
// sched.Scheduler work unchanged. fn may call the public driver surface
// (it runs outside the router lock).
func (sh *Sharded) Atomic(fn func()) { fn() }

// Counts tallies jobs per state across all shards.
func (sh *Sharded) Counts() map[sched.JobState]int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[sched.JobState]int)
	sh.eachJob(func(j *sched.Job) { out[j.State]++ })
	return out
}

// Unfinished counts jobs still pending, reserved, or running.
func (sh *Sharded) Unfinished() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for _, st := range sh.shards {
		n += st.s.Unfinished()
	}
	return n
}

// Stats sums the shard schedulers' work counters, including counters
// folded in from schedulers discarded at reabsorb time.
func (sh *Sharded) Stats() sched.Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out sched.Stats
	if sh.sup != nil {
		out = sh.sup.retiredStats
	}
	for _, st := range sh.shards {
		out.Add(st.s.Stats())
	}
	return out
}

// Cycles sums scheduling cycles across shards.
func (sh *Sharded) Cycles() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	if sh.sup != nil {
		n = sh.sup.retiredCycles
	}
	for _, st := range sh.shards {
		n += st.s.Cycles
	}
	return n
}

// Metrics computes run statistics over the merged job table with
// sched.FoldMetrics: utilization and makespan span the whole system
// (node capacity summed across shard roots, makespan from the global
// earliest submit to the global last completion). Requeue and lost-core
// counters fold in both live shards and schedulers discarded at reabsorb
// time.
func (sh *Sharded) Metrics() sched.Metrics {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var requeued sched.Metrics
	if sh.sup != nil {
		requeued = sh.sup.retiredMetrics
	}
	nodeCapacity := int64(0)
	for _, st := range sh.shards {
		if root := st.g.Root(resgraph.Containment); root != nil {
			if id, ok := st.g.Types().Lookup("node"); ok {
				nodeCapacity += root.AggregateOf(id)
			}
		}
		sm := st.s.Metrics()
		requeued.Requeues += sm.Requeues
		requeued.LostCoreSeconds += sm.LostCoreSeconds
	}
	m := sched.FoldMetrics(sh.eachJob, nodeCapacity)
	m.Requeues, m.LostCoreSeconds = requeued.Requeues, requeued.LostCoreSeconds
	return m
}

// Withdraw removes a job from whichever shard owns it (see
// sched.Scheduler.Withdraw). Retired records are simply dropped.
func (sh *Sharded) Withdraw(id int64) (*sched.Job, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k, ok := sh.byJob[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", traverser.ErrUnknownJob, id)
	}
	var job *sched.Job
	if k == retiredShard {
		job = sh.sup.retired[id]
		delete(sh.sup.retired, id)
	} else {
		var err error
		if job, err = sh.shards[k].s.Withdraw(id); err != nil {
			return nil, err
		}
		sh.refreshDemand(sh.shards[k])
	}
	delete(sh.byJob, id)
	delete(sh.routes, id)
	return job, nil
}

// Now returns the lockstep simulated clock: the maximum across shard
// clocks. Live clocks agree after every step, but a dark (failed) shard
// freezes at its failure time and uneven AdvanceTo progress is possible
// between steps — the max is the time the system as a whole has reached
// and never regresses.
func (sh *Sharded) Now() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.now()
}

func (sh *Sharded) now() int64 {
	t := int64(0)
	for _, st := range sh.shards {
		if n := st.s.Now(); n > t {
			t = n
		}
	}
	return t
}

// HasEvents reports whether any live shard has pending events.
func (sh *Sharded) HasEvents() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.hasEvents()
}

func (sh *Sharded) hasEvents() bool {
	for _, st := range sh.shards {
		if st.eventful() && st.s.HasEvents() {
			return true
		}
	}
	return false
}

// NextEventAt returns the earliest pending event time across live
// shards (-1 when none).
func (sh *Sharded) NextEventAt() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.nextEventAt()
}

func (sh *Sharded) nextEventAt() int64 {
	at := int64(-1)
	for _, st := range sh.shards {
		if !st.eventful() || !st.s.HasEvents() {
			continue
		}
		if t := st.s.NextEventAt(); at < 0 || t < at {
			at = t
		}
	}
	return at
}

// AdvanceTo moves every live shard clock forward to t in lockstep. Dark
// shards stay frozen; reabsorption advances them when they rebuild.
func (sh *Sharded) AdvanceTo(t int64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.advanceTo(t)
}

func (sh *Sharded) advanceTo(t int64) error {
	for _, st := range sh.shards {
		if !st.eventful() {
			continue
		}
		if err := st.s.AdvanceTo(t); err != nil {
			return err
		}
	}
	return nil
}

// Step advances every live shard to the next global event instant:
// shards with events there run their Step (dispatch + cycle)
// concurrently — their graphs, planners, and queues are fully disjoint —
// and the rest just advance their clocks. The supervisor then digests
// cycle outcomes (health transitions, failover drains, recovery probes)
// and one rebalance round follows. Returns false when no events remain
// on any live shard.
func (sh *Sharded) Step() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.step()
}

func (sh *Sharded) step() bool {
	t := sh.nextEventAt()
	if t < 0 {
		return false
	}
	var steppers []*shardState
	for _, st := range sh.shards {
		if !st.eventful() {
			continue
		}
		if st.s.HasEvents() && st.s.NextEventAt() == t {
			steppers = append(steppers, st)
		} else if err := st.s.AdvanceTo(t); err != nil {
			// Unreachable by construction (t is the global minimum);
			// surface loudly rather than silently desynchronizing.
			panic(fmt.Sprintf("shard: lockstep advance to %d: %v", t, err))
		}
	}
	sh.runCycles(steppers, true)
	sh.supervise()
	sh.rebalance()
	return true
}

// Schedule runs one scheduling cycle on every live shard concurrently,
// then the supervisor digest and one rebalance round.
func (sh *Sharded) Schedule() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.schedule()
}

func (sh *Sharded) schedule() {
	var active []*shardState
	for _, st := range sh.shards {
		if st.health != Failed {
			active = append(active, st)
		}
	}
	sh.runCycles(active, false)
	sh.supervise()
	sh.rebalance()
}

// runCycles fans one cycle (step = event dispatch + cycle, otherwise a
// plain scheduling cycle) across the given shards. Without a supervisor
// the cycles dispatch straight to the shard schedulers — no fence, no
// clock reads — preserving the unsupervised hot path; with one, every
// cycle runs inside the panic fence and deadline watch (supervisor.go).
//
// A cycle's immediate allocations publish no delta (a claim cannot
// unblock a waiting job, so the wakeup index ignores them), but they do
// consume residue: the cache is dirtied by hand after every cycle.
func (sh *Sharded) runCycles(shards []*shardState, step bool) {
	if sh.sup == nil {
		if step {
			runParallel(shards, func(st *shardState) { st.s.Step(); st.dirty = true })
		} else {
			runParallel(shards, func(st *shardState) { st.s.Schedule(); st.dirty = true })
		}
		return
	}
	runParallel(shards, func(st *shardState) { sh.fencedCycle(st, step) })
}

// Run schedules and steps until every satisfiable job completes (or
// maxSteps, 0 = unbounded). Returns completed jobs.
func (sh *Sharded) Run(maxSteps int) int {
	sh.Schedule()
	steps := 0
	for sh.Step() {
		steps++
		if maxSteps > 0 && steps >= maxSteps {
			break
		}
	}
	done := 0
	for _, j := range sh.Jobs() {
		if j.State == sched.StateCompleted {
			done++
		}
	}
	return done
}

// runParallel fans fn across the given shards. A single shard runs
// inline: the 1-shard configuration takes exactly the flat scheduler's
// code path, goroutine-free.
func runParallel(shards []*shardState, fn func(*shardState)) {
	if len(shards) == 0 {
		return
	}
	if len(shards) == 1 {
		fn(shards[0])
		return
	}
	var wg sync.WaitGroup
	for _, st := range shards {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			fn(st)
		}(st)
	}
	wg.Wait()
}
