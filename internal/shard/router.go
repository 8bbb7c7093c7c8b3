package shard

import (
	"cmp"
	"fmt"
	"slices"

	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
)

// This file is the router: the one placement path that submit-time
// routing, the work-stealing rebalancer and failover drains share, and
// the per-shard residue and demand caches it ranks shards by.

// route is the router's record of one job: its per-type need, computed
// once from the jobspec when the job first arrives, and how often the
// rebalancer has moved it.
type route struct {
	need   []typeCount
	steals int
}

// typeCount is one resource type's units in a job's need. A slice, not
// a map: refreshDemand and headroom walk every queued job's need each
// round, and walking a map costs several times more.
type typeCount struct {
	typ string
	n   int64
}

// residues returns the shard's free units per type at now, recomputed
// when a delta dirtied the cache or the clock moved. The source is the
// shard root's SDFU pruning filter — the same aggregate machinery match
// traversal prunes with, read one level up. Types the filter does not
// track fall back to static capacity.
func (st *shardState) residues(now int64) map[string]int64 {
	if !st.dirty && st.residueAt == now {
		return st.residue
	}
	clear(st.residue)
	root := st.g.Root(resgraph.Containment)
	if f := root.Filter(); f != nil {
		tab := st.g.Types()
		for _, id := range f.IDs() {
			if avail, err := f.PlannerByID(id).AvailAt(now); err == nil {
				st.residue[tab.Name(id)] = avail
			}
		}
	}
	for t, c := range st.cap {
		if _, tracked := st.residue[t]; !tracked {
			st.residue[t] = c
		}
	}
	st.dirty = false
	st.residueAt = now
	return st.residue
}

// refreshDemand recomputes a shard's queued (pending + reserved)
// aggregate demand from its job table and the jobs' route records.
func (sh *Sharded) refreshDemand(st *shardState) {
	clear(st.queued)
	for id, j := range st.s.Jobs() {
		if j.State == sched.StatePending || j.State == sched.StateReserved {
			addDemand(st.queued, sh.routes[id].need)
		}
	}
}

// addDemand folds need into a shard's queued-demand cache.
func addDemand(queued map[string]int64, need []typeCount) {
	for _, c := range need {
		queued[c.typ] += c.n
	}
}

// cand is one routing candidate: a shard and its headroom score.
type cand struct {
	idx   int
	score int64
}

// headroom scores a shard for a job with the given per-type needs: the
// minimum over requested types of (residue − queued demand − need). A
// negative score means the job does not fit the shard's instantaneous
// residues (it may still fit later — reservations handle that); ok is
// false when the shard's static capacity can never hold the job.
func (st *shardState) headroom(need []typeCount, now int64) (int64, bool) {
	res := st.residues(now)
	best := int64(1) << 62
	for _, c := range need {
		if c.n <= 0 {
			continue
		}
		if st.cap[c.typ] < c.n {
			return 0, false
		}
		if h := res[c.typ] - st.queued[c.typ] - c.n; h < best {
			best = h
		}
	}
	return best, true
}

// placement names the caller of place; each keeps its own rules on top
// of the shared path. The two moves, stealing and draining, skip a shard
// whose submit errors (admission backpressure) and try the next.
type placement uint8

const (
	// submitting routes a new job: a submit error is returned at once,
	// and the last shard's unsatisfiable verdict stands.
	submitting placement = iota
	// stealing moves a pending job off a shard it is blocked on: only
	// shards whose residues cover it now (score >= 0) may take it, and
	// no shard's unsatisfiable verdict stands.
	stealing
	// draining moves a job off a failed shard: the last shard's
	// unsatisfiable verdict stands.
	draining
)

// place is the one placement path. It ranks the placeable shards other
// than the job's current owner by headroom for the job's need, best
// first (ties by shard index), leaving out shards whose static capacity
// can never hold it, and submits the job to them in that order. A shard
// that records the job unsatisfiable — down capacity or fragmentation
// its aggregates could not see — has it withdrawn again, and the next
// shard is tried. The first shard that accepts becomes the owner. A
// moved job keeps its original Submit and Retries, so wait metrics stay
// honest, and only then is it withdrawn from its old owner: a move no
// shard accepts leaves the job where it was, in its queue position.
//
// j is the job to place: for submitting a template carrying only ID,
// Spec and Priority, otherwise the old owner's record. place returns
// the accepted record and its shard, or owner -1 when no shard took
// the job. Shards that received moved jobs are marked for catchUp.
func (sh *Sharded) place(j *sched.Job, how placement) (*sched.Job, int, error) {
	id, need := j.ID, sh.routes[j.ID].need
	from := -1
	if how != submitting {
		from = sh.byJob[id]
	}
	now := sh.now()
	cands := sh.cands[:0]
	for i, st := range sh.shards {
		if i == from || !st.placeable() {
			continue
		}
		if score, ok := st.headroom(need, now); ok && (how != stealing || score >= 0) {
			cands = append(cands, cand{idx: i, score: score})
		}
	}
	sh.cands = cands
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.idx, b.idx))
	})
	for ci, c := range cands {
		st := sh.shards[c.idx]
		nj, err := st.s.SubmitPriority(id, j.Spec, j.Priority)
		if err != nil {
			if how == submitting {
				return nil, -1, err
			}
			continue
		}
		if nj.State == sched.StateUnsatisfiable && (how == stealing || ci+1 < len(cands)) {
			// Overflow: the aggregate said fit, satisfiability said no.
			_, _ = st.s.Withdraw(id)
			if how == submitting {
				sh.stats.Rerouted++
			}
			continue
		}
		if from >= 0 {
			nj.Submit, nj.Retries = j.Submit, j.Retries
			_, _ = sh.shards[from].s.Withdraw(id)
		}
		sh.byJob[id] = c.idx
		if nj.State != sched.StateUnsatisfiable {
			addDemand(st.queued, need)
			if from >= 0 {
				sh.moved[c.idx] = true
			}
		}
		return nj, c.idx, nil
	}
	return nil, -1, nil
}

// catchUp runs one cycle on every shard place moved jobs to, in shard
// order, so the moved jobs get a decision this round.
func (sh *Sharded) catchUp() {
	var list []*shardState
	for i, moved := range sh.moved {
		if moved {
			list = append(list, sh.shards[i])
			sh.moved[i] = false
		}
	}
	sh.runCycles(list, false)
}

// Submit routes and enqueues a job (see SubmitPriority).
func (sh *Sharded) Submit(id int64, spec *jobspec.Jobspec) (*sched.Job, error) {
	return sh.SubmitPriority(id, spec, 0)
}

// SubmitPriority routes the job to the shard with the most residue
// headroom for its aggregate needs and submits it there. Failed shards
// are skipped — quarantine removes their subtrees from the router's
// view. When the chosen shard rejects the job as unsatisfiable (down
// capacity, fragmentation its aggregates could not see), the router
// re-routes to the next-best shard before giving up. A job no live
// shard's static capacity can hold is submitted to the first live shard
// so it is recorded unsatisfiable with flat-scheduler semantics.
func (sh *Sharded) SubmitPriority(id int64, spec *jobspec.Jobspec, priority int) (*sched.Job, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.submitPriority(id, spec, priority)
}

func (sh *Sharded) submitPriority(id int64, spec *jobspec.Jobspec, priority int) (*sched.Job, error) {
	if _, dup := sh.byJob[id]; dup {
		return nil, fmt.Errorf("sched: job %d already submitted", id)
	}
	fallback := slices.IndexFunc(sh.shards, (*shardState).placeable)
	if fallback < 0 {
		return nil, fmt.Errorf("shard: no live shard to accept job %d (all failed)", id)
	}
	r := &route{}
	if spec != nil {
		for t, n := range spec.TotalCounts() {
			r.need = append(r.need, typeCount{t, n})
		}
	}
	sh.routes[id] = r
	job, owner, err := sh.place(&sched.Job{ID: id, Spec: spec, Priority: priority}, submitting)
	if err == nil && owner < 0 {
		// Too big for every live shard: record the unsatisfiable verdict
		// on the first live shard. This is a real quality loss vs. the
		// flat scheduler (which might have placed the job across shard
		// boundaries) and is counted, not hidden.
		sh.stats.Unroutable++
		job, err = sh.shards[fallback].s.SubmitPriority(id, spec, priority)
		owner = fallback
	} else if err == nil && job.State != sched.StateUnsatisfiable {
		sh.stats.Routed++
	}
	if err != nil {
		delete(sh.routes, id)
		return nil, err
	}
	sh.byJob[id] = owner
	return job, nil
}

// rebalance is the work-stealing round run after every Schedule/Step:
// jobs still pending on a shard after its cycle (blocked there) move,
// through place, to a shard whose instantaneous residues minus queued
// demand cover them. Donors are scanned in shard order, each in queue
// order. Receiving shards run one catch-up cycle so stolen jobs get a
// decision this round. Steals are bounded per round and per job. Failed
// shards neither donate (their queues were drained at failure) nor
// receive.
func (sh *Sharded) rebalance() {
	if len(sh.shards) < 2 {
		return
	}
	for _, st := range sh.shards {
		if st.placeable() {
			sh.refreshDemand(st)
		}
	}
	budget := DefaultStealsPerRound
steal:
	for _, st := range sh.shards {
		if !st.placeable() {
			continue
		}
		for _, job := range st.s.PendingJobs() {
			r := sh.routes[job.ID]
			if r.steals >= DefaultMaxStealsPerJob {
				continue
			}
			if _, to, _ := sh.place(job, stealing); to < 0 {
				continue
			}
			r.steals++
			sh.stats.Steals++
			sh.refreshDemand(st)
			budget--
			if budget == 0 {
				break steal
			}
		}
	}
	sh.catchUp()
}
