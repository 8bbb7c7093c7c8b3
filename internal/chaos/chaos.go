// Package chaos is the seeded, composable schedule of the hostile-input
// faults the scheduler self-defense layer exists for — injected match
// panics, slow-match latency, and malformed-spec streams — and of the
// shard kills and stalls the shard supervisor exists for. Node MTBF/MTTR
// faults (internal/simcli's injector) and storage faults (internal/wal's
// FaultPlan) are configured apart from it; the node injector hashes with
// Mix too. A Plan is pure data plus pure hash functions: every decision
// ("does job 17 panic?") is a stateless function of (Seed, salt, job
// ID), so the same plan replays identically across runs, across a
// checkpoint resume, and across the defense-free parity baseline.
//
// The parity contract drives the design. Poisoned(id) is the exact set
// of jobs the defenses are expected to reject (malformed specs) or
// quarantine (panicking matches). A chaos run with defenses enabled
// must schedule every job outside that set identically to a clean run
// whose trace was FilterTrace'd — that property test lives in
// parity_test.go and is the tentpole's acceptance gate.
package chaos

import (
	"fmt"
	"time"

	"fluxion/internal/jobspec"
	"fluxion/internal/trace"
)

// Hash salts separating the per-job fault streams.
const (
	saltPanic     = 0x70616e63 // "panc"
	saltSlow      = 0x736c6f77 // "slow"
	saltMalformed = 0x6d616c66 // "malf"
	saltShape     = 0x73686170 // "shap"
	saltShardKill = 0x736b696c // "skil"
	saltShardStl  = 0x7373746c // "sstl"
)

// Plan is one seeded chaos schedule. The zero value injects nothing;
// each knob composes independently.
type Plan struct {
	// Seed drives every per-job fault decision.
	Seed int64

	// PanicFrac is the fraction of jobs whose match attempts panic
	// (injected through the scheduler's match hook).
	PanicFrac float64
	// SlowFrac is the fraction of jobs whose match attempts stall for
	// SlowDelay before dispatching.
	SlowFrac  float64
	SlowDelay time.Duration
	// MalformedFrac is the fraction of jobs submitted with a malformed
	// jobspec instead of their real one.
	MalformedFrac float64

	// ShardKillFrac is the fraction of shards whose scheduling cycles
	// panic while the shard-fault window is open — injected through the
	// sharded supervisor's cycle hook (internal/shard), where the cycle
	// fence converts each panic into a health-state strike.
	ShardKillFrac float64
	// ShardStallFrac is the fraction of shards whose cycles stall for
	// ShardStallDelay inside the window (trips the cycle deadline when
	// the supervisor arms one).
	ShardStallFrac  float64
	ShardStallDelay time.Duration
	// ShardFaultFrom/ShardFaultUntil bound the shard-fault window in
	// simulated seconds. From 0 opens the window at time zero; Until 0
	// leaves it open forever — a closed window lets the supervisor's
	// recovery probes succeed and reabsorb the shard mid-run.
	ShardFaultFrom  int64
	ShardFaultUntil int64
}

// hits decides one per-job fault stream membership: a pure hash of
// (seed, salt, id) compared against the fraction.
func (p *Plan) hits(id int64, salt uint64, frac float64) bool {
	if p == nil || frac <= 0 {
		return false
	}
	x := Mix(uint64(p.Seed)*0x9e3779b97f4a7c15 ^ uint64(id)*0xbf58476d1ce4e5b9 ^ salt)
	return float64(x>>11)/(1<<53) < frac
}

// Panics reports whether job id's match attempts panic under this plan.
func (p *Plan) Panics(id int64) bool { return p.hits(id, saltPanic, p.PanicFrac) }

// Slow reports whether job id's match attempts stall under this plan.
func (p *Plan) Slow(id int64) bool { return p.hits(id, saltSlow, p.SlowFrac) }

// Malformed reports whether job id submits a malformed spec.
func (p *Plan) Malformed(id int64) bool { return p.hits(id, saltMalformed, p.MalformedFrac) }

// Poisoned reports whether the defenses are expected to remove job id
// from the schedule — rejected at submit (malformed) or quarantined
// (panicking match). This is the set a defense-free parity baseline
// must filter out. Slow jobs are NOT poisoned: without a match deadline
// they schedule normally, just late.
func (p *Plan) Poisoned(id int64) bool { return p.Panics(id) || p.Malformed(id) }

// Active reports whether the plan injects any job-level fault (the
// signal for drivers to install the match hook and spec substitution).
func (p *Plan) Active() bool {
	return p != nil && (p.PanicFrac > 0 || p.SlowFrac > 0 || p.MalformedFrac > 0)
}

// MatchHook returns the scheduler match-hook injecting this plan's
// panic and latency faults; install it with Scheduler.SetMatchHook. The
// returned hook panics for jobs in the panic stream — the defense
// fence converts that into quarantine.
func (p *Plan) MatchHook() func(jobID int64) {
	return func(jobID int64) {
		if p.Slow(jobID) && p.SlowDelay > 0 {
			time.Sleep(p.SlowDelay)
		}
		if p.Panics(jobID) {
			panic(fmt.Sprintf("chaos: injected match panic (job %d, seed %d)", jobID, p.Seed))
		}
	}
}

// KillsShard reports whether shard idx's cycles panic under this plan
// (while the fault window is open).
func (p *Plan) KillsShard(idx int) bool {
	return p.hits(int64(idx), saltShardKill, p.ShardKillFrac)
}

// StallsShard reports whether shard idx's cycles stall under this plan.
func (p *Plan) StallsShard(idx int) bool {
	return p.hits(int64(idx), saltShardStl, p.ShardStallFrac)
}

// ShardActive reports whether the plan injects shard-level faults (the
// signal for drivers to enable the shard supervisor and install the
// cycle hook).
func (p *Plan) ShardActive() bool {
	return p != nil && (p.ShardKillFrac > 0 || p.ShardStallFrac > 0)
}

// shardWindow reports whether the shard-fault window is open at now.
func (p *Plan) shardWindow(now int64) bool {
	if now < p.ShardFaultFrom {
		return false
	}
	return p.ShardFaultUntil <= 0 || now < p.ShardFaultUntil
}

// ShardHook returns the supervisor cycle hook injecting this plan's
// shard kill/stall faults; install it with Sharded.SetCycleHook. The
// hook runs on whichever goroutine executes the shard's cycle and is a
// pure function of (plan, shard, now), so concurrent shards and
// repeated runs see identical faults.
func (p *Plan) ShardHook() func(shard int, now int64) {
	return func(shard int, now int64) {
		if !p.shardWindow(now) {
			return
		}
		if p.StallsShard(shard) && p.ShardStallDelay > 0 {
			time.Sleep(p.ShardStallDelay)
		}
		if p.KillsShard(shard) {
			panic(fmt.Sprintf("chaos: injected shard kill (shard %d, seed %d)", shard, p.Seed))
		}
	}
}

// MalformedSpec deterministically picks one malformed jobspec shape for
// job id — the hostile-input corpus the submit validator must reject.
// The shapes cover every rejection class: zero and negative counts,
// min above count, unknown resource types, empty type names, slot
// violations, an empty resource section, and depth-bomb nesting.
func (p *Plan) MalformedSpec(id int64) *jobspec.Jobspec {
	switch Mix(uint64(p.Seed)^uint64(id)*0x94d049bb133111eb^saltShape) % 8 {
	case 0: // zero unit count
		return jobspec.New(60, jobspec.R("node", 0, jobspec.R("core", 1)))
	case 1: // negative unit count
		return jobspec.New(60, jobspec.R("node", 1, jobspec.R("core", -4)))
	case 2: // unknown resource type
		return jobspec.New(60, jobspec.R("node", 1, jobspec.R("quantum-fpga", 2)))
	case 3: // moldable min above max
		return jobspec.New(60, jobspec.Moldable("node", 8, 2, jobspec.R("core", 1)))
	case 4: // slot without a contained shape
		return jobspec.New(60, jobspec.R("node", 1, jobspec.SlotR(1)))
	case 5: // nested slot
		return jobspec.New(60, jobspec.SlotR(1, jobspec.SlotR(1, jobspec.R("core", 1))))
	case 6: // empty resource section
		return jobspec.New(60)
	default: // cycle-inducing nesting depth
		return DeepSpec(jobspec.MaxNestingDepth + 8)
	}
}

// DeepSpec builds a request nested depth levels — past
// jobspec.MaxNestingDepth it stands in for a cyclic request graph,
// which the depth cap must reject rather than recurse into forever.
func DeepSpec(depth int) *jobspec.Jobspec {
	r := jobspec.R("core", 1)
	for i := 1; i < depth; i++ {
		r = jobspec.R("node", 1, r)
	}
	return jobspec.New(60, r)
}

// FilterTrace returns jobs with this plan's poisoned set removed — the
// trace a defense-free parity baseline runs.
func (p *Plan) FilterTrace(jobs []trace.Job) []trace.Job {
	out := make([]trace.Job, 0, len(jobs))
	for _, j := range jobs {
		if !p.Poisoned(j.ID) {
			out = append(out, j)
		}
	}
	return out
}

// String summarizes the plan for run reports.
func (p *Plan) String() string {
	s := fmt.Sprintf("seed=%d panics=%.2f slow=%.2f/%s malformed=%.2f",
		p.Seed, p.PanicFrac, p.SlowFrac, p.SlowDelay, p.MalformedFrac)
	if p.ShardActive() {
		s += fmt.Sprintf(" shard-kill=%.2f shard-stall=%.2f/%s window=[%d,%d)",
			p.ShardKillFrac, p.ShardStallFrac, p.ShardStallDelay,
			p.ShardFaultFrom, p.ShardFaultUntil)
	}
	return s
}

// Mix is the splitmix64 finalizer: a high-quality 64-bit avalanche.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
