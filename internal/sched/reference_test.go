package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// reference is the qmanager scheduling loop of paper §3.4, stated as
// plainly as possible: the spec the engine's decisions are checked
// against. Every cycle cancels every standing reservation, then walks the
// whole priority queue front to back:
//
//   - FCFS allocates in order and stops matching at the first job that
//     does not fit now;
//   - EASY allocates-or-reserves the first job that does not fit now and
//     only allocates (never reserves) behind it;
//   - conservative allocates-or-reserves every job.
//
// Only the first depth queued jobs are planned (0 = all). The reference
// keeps its own queue, event heap and counters and touches the traverser
// through its exported API only; it calls no Scheduler method and no
// package helper, so agreeing with it means agreeing with the loop, not
// with shared code.
type reference struct {
	tr         *traverser.Traverser
	policy     QueuePolicy
	depth      int
	maxRetries int // evictions a job survives; 0 = unbounded

	now    int64
	jobs   map[int64]*Job
	queue  []*Job          // pending and reserved jobs, in queue order
	ticket map[int64]int64 // enqueue order, renewed on every requeue
	next   int64
	events refEvents

	// attempts counts traverser match calls (allocate or
	// allocate-or-reserve), the work the engine exists to avoid.
	attempts int64
}

// newReference builds a reference over the same racks×nodes×cores system
// newSchedOpts builds.
func newReference(t testing.TB, policy QueuePolicy, racks, nodes, cores int64, depth, maxRetries int) *reference {
	t.Helper()
	g, err := grug.BuildGraph(grug.Small(racks, nodes, cores, 0, 0), 0, 1<<40,
		resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		t.Fatal(err)
	}
	return &reference{
		tr: tr, policy: policy, depth: depth, maxRetries: maxRetries,
		now: g.Base(), jobs: map[int64]*Job{}, ticket: map[int64]int64{},
	}
}

// Same-instant event order: completions, then repairs, then failures.
const (
	refComplete = iota
	refUp
	refDown
)

type refEvent struct {
	at   int64
	kind int
	id   int64  // refComplete
	path string // refUp, refDown
}

type refEvents []refEvent

func (h refEvents) Len() int      { return len(h) }
func (h refEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refEvents) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.path < b.path
}
func (h *refEvents) Push(x any) { *h = append(*h, x.(refEvent)) }
func (h *refEvents) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// enqueue puts j behind every queued job of its priority or higher: the
// queue is ordered by priority, then by when each job (re-)entered it.
func (r *reference) enqueue(j *Job) {
	r.ticket[j.ID] = r.next
	r.next++
	r.queue = append(r.queue, j)
	sort.SliceStable(r.queue, func(a, b int) bool {
		qa, qb := r.queue[a], r.queue[b]
		if qa.Priority != qb.Priority {
			return qa.Priority > qb.Priority
		}
		return r.ticket[qa.ID] < r.ticket[qb.ID]
	})
}

func (r *reference) SubmitPriority(id int64, spec *jobspec.Jobspec, priority int) (*Job, error) {
	if _, dup := r.jobs[id]; dup {
		return nil, fmt.Errorf("reference: job %d already submitted", id)
	}
	ok, err := r.tr.MatchSatisfy(spec)
	if err != nil {
		return nil, err
	}
	j := &Job{ID: id, Spec: spec, Submit: r.now, Priority: priority, State: StatePending}
	r.jobs[id] = j
	if !ok {
		j.State = StateUnsatisfiable
		return j, nil
	}
	r.enqueue(j)
	return j, nil
}

// Schedule runs one cycle of the qmanager loop.
func (r *reference) Schedule() {
	for _, j := range r.queue {
		if j.State == StateReserved {
			if err := r.tr.Cancel(j.ID); err != nil {
				panic(err)
			}
			j.State, j.Alloc = StatePending, nil
		}
	}
	var still []*Job
	blocked := false
	for i, j := range r.queue {
		if r.depth > 0 && i >= r.depth {
			still = append(still, j)
			continue
		}
		var alloc *traverser.Allocation
		err := traverser.ErrNoMatch
		switch {
		case r.policy == FCFS && blocked:
			// Nothing behind a blocked FCFS head is matched.
		case r.policy == FCFS || (r.policy == EASY && blocked):
			r.attempts++
			alloc, err = r.tr.MatchAllocate(j.ID, j.Spec, r.now)
		default:
			r.attempts++
			alloc, err = r.tr.MatchAllocateOrReserve(j.ID, j.Spec, r.now)
		}
		switch {
		case err != nil:
			if !errors.Is(err, traverser.ErrNoMatch) {
				panic(err)
			}
			blocked = true
			still = append(still, j)
		case alloc.Reserved:
			j.State, j.Alloc = StateReserved, alloc
			blocked = true
			still = append(still, j)
		default:
			j.State, j.Alloc = StateRunning, alloc
			j.StartAt, j.EndAt = alloc.At, alloc.At+alloc.Duration
			heap.Push(&r.events, refEvent{at: j.EndAt, kind: refComplete, id: j.ID})
		}
	}
	r.queue = still
}

// skim drops completions of jobs that were evicted since they were
// scheduled; every other event fires.
func (r *reference) skim() {
	for len(r.events) > 0 {
		e := r.events[0]
		j := r.jobs[e.id]
		if e.kind != refComplete || (j.State == StateRunning && j.EndAt == e.at) {
			return
		}
		heap.Pop(&r.events)
	}
}

func (r *reference) HasEvents() bool { r.skim(); return len(r.events) > 0 }

func (r *reference) NextEventAt() int64 {
	if !r.HasEvents() {
		return -1
	}
	return r.events[0].at
}

func (r *reference) AdvanceTo(t int64) error {
	if t < r.now || (r.HasEvents() && r.events[0].at < t) {
		return fmt.Errorf("reference: cannot advance from %d to %d", r.now, t)
	}
	r.now = t
	return nil
}

// Step fires every event of the next instant, then runs a cycle.
func (r *reference) Step() bool {
	if !r.HasEvents() {
		return false
	}
	r.now = r.events[0].at
	for r.HasEvents() && r.events[0].at == r.now {
		e := heap.Pop(&r.events).(refEvent)
		switch e.kind {
		case refComplete:
			j := r.jobs[e.id]
			if err := r.tr.Cancel(j.ID); err != nil {
				panic(err)
			}
			j.State = StateCompleted
		case refUp:
			if err := r.tr.MarkUp(e.path); err != nil {
				panic(err)
			}
		case refDown:
			r.nodeDown(e.path)
		}
	}
	r.Schedule()
	return true
}

// nodeDown evicts every job on the subtree. A running job is requeued
// behind its priority equals with one more retry, or fails once it has
// used up maxRetries; a reservation just returns to pending in place.
func (r *reference) nodeDown(path string) {
	evicted, err := r.tr.MarkDown(path)
	if err != nil {
		panic(err)
	}
	for _, a := range evicted {
		j := r.jobs[a.JobID]
		wasRunning := j.State == StateRunning
		j.State, j.Alloc = StatePending, nil
		if !wasRunning {
			continue
		}
		j.Retries++
		if r.maxRetries > 0 && j.Retries > r.maxRetries {
			j.State = StateFailed
			continue
		}
		r.enqueue(j)
	}
}

func (r *reference) ScheduleNodeDown(at int64, path string) error {
	heap.Push(&r.events, refEvent{at: at, kind: refDown, path: path})
	return nil
}

func (r *reference) ScheduleNodeUp(at int64, path string) error {
	heap.Push(&r.events, refEvent{at: at, kind: refUp, path: path})
	return nil
}

func (r *reference) Run(maxSteps int) int {
	r.Schedule()
	for steps := 1; r.Step() && (maxSteps <= 0 || steps < maxSteps); steps++ {
	}
	done := 0
	for _, j := range r.jobs {
		if j.State == StateCompleted {
			done++
		}
	}
	return done
}

func (r *reference) Jobs() map[int64]*Job { return r.jobs }
func (r *reference) Now() int64           { return r.now }
