// Package sched implements the queuing layer above the Fluxion traverser:
// a discrete-event simulated clock and three queue policies — pure FCFS,
// EASY backfilling, and conservative backfilling (the paper's evaluation
// policy, §6.2/§6.3).
//
// Each scheduling cycle makes the decisions of flux-sched's qmanager loop
// (paper §3.4): drop every standing reservation, then re-plan the pending
// queue front to back with MatchAllocateOrReserve. The one engine
// (incremental.go) reaches those decisions without redoing that work: it
// re-matches only jobs a capacity delta may have unblocked and carries
// still-valid reservations across cycles. reference_test.go states the
// qmanager loop directly, as the test-only spec the engine is checked
// against.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"fluxion/internal/jobspec"
	"fluxion/internal/traverser"
)

// QueuePolicy selects how the pending queue is planned.
type QueuePolicy string

const (
	// FCFS allocates strictly in order and stops at the first job that
	// does not fit now (no backfilling, no reservations).
	FCFS QueuePolicy = "fcfs"
	// EASY reserves the queue head and backfills later jobs only if
	// they fit immediately.
	EASY QueuePolicy = "easy"
	// Conservative reserves every pending job (the paper's setting).
	Conservative QueuePolicy = "conservative"
)

// JobState is a job's lifecycle state.
type JobState int

// Job lifecycle states.
const (
	StatePending JobState = iota
	StateReserved
	StateRunning
	StateCompleted
	StateUnsatisfiable
	// StateFailed marks a job evicted by resource failures more times
	// than MaxRetries allows; it will not be requeued again.
	StateFailed
	// StateQuarantined marks a poisoned job set aside by the defense
	// layer (defense.go): out of the pending queue, never retried, until
	// an operator calls ReleaseQuarantined.
	StateQuarantined
)

func (s JobState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateReserved:
		return "reserved"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateUnsatisfiable:
		return "unsatisfiable"
	case StateFailed:
		return "failed"
	case StateQuarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// parseJobState is the inverse of JobState.String, for checkpoint decode.
func parseJobState(s string) (JobState, error) {
	for _, st := range []JobState{StatePending, StateReserved, StateRunning,
		StateCompleted, StateUnsatisfiable, StateFailed, StateQuarantined} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown job state %q", s)
}

// Job is one schedulable unit of work.
type Job struct {
	ID     int64
	Spec   *jobspec.Jobspec
	Submit int64 // simulated submit time
	// Priority orders the pending queue: higher runs first, ties by
	// submit order. Set it before (or via) SubmitPriority.
	Priority int

	State   JobState
	StartAt int64 // simulated start (allocation) time
	EndAt   int64
	// Retries counts how many times the job was evicted by a resource
	// failure and requeued. Exceeding the scheduler's MaxRetries moves
	// the job to StateFailed.
	Retries int
	// MatchDuration accumulates the wall-clock time spent inside the
	// matcher for this job across scheduling cycles — the per-job
	// scheduling overhead reported in paper Figure 7b.
	MatchDuration time.Duration
	// Alloc is the live or reserved selected resource set.
	Alloc *traverser.Allocation

	// QuarantineMsg and Quarantine (packed below with the scratch flags)
	// record why a quarantined job was set aside (defense.go); meaningful
	// only in StateQuarantined. The match fence stages the pending
	// reason/message in the same fields (with poisoned set) between the
	// attempt and the cycle loop's quarantine, which always lands within
	// the same cycle.
	QuarantineMsg string

	// compiled caches Spec compiled against the scheduler's graph, so
	// the job is flattened and interned once at submit instead of on
	// every match attempt across scheduling cycles.
	compiled *jobspec.Compiled

	// Incremental-engine state (transient; never checkpointed). sig is
	// the blocking signature of the job's last failed attempt, valid
	// while sigOK; sigReserve records that the failed attempt included a
	// reservation probe (allocate-or-reserve), so the signature also
	// justifies skipping reservation re-attempts. woken and invalidated
	// are per-cycle scratch set by the wake pre-pass.
	sig         traverser.BlockSig
	sigOK       bool
	sigReserve  bool
	woken       bool
	invalidated bool

	// Defense scratch (transient): poisoned flags the job for quarantine
	// at its cycle position — set by the match fence and consumed by the
	// cycle loop. Kept narrow on purpose: the classification loop walks
	// every pending job each cycle, so Job size is cycle-time (the
	// quarantine reason/message stage in the exported fields above rather
	// than a second copy here).
	poisoned   bool
	Quarantine QuarantineReason
}

// ErrUnknownPolicy reports an unrecognized queue policy.
var ErrUnknownPolicy = errors.New("sched: unknown queue policy")

// eventKind discriminates scheduler events: job completions and resource
// failure/repair events share one simulated-time event queue so a fault
// timeline interleaves deterministically with the workload.
type eventKind int

const (
	// evComplete retires a running job.
	evComplete eventKind = iota
	// evNodeUp returns a containment subtree to service.
	evNodeUp
	// evNodeDown takes a containment subtree out of service, evicting
	// and requeueing the jobs running on it.
	evNodeDown
)

func (k eventKind) String() string {
	switch k {
	case evComplete:
		return "complete"
	case evNodeUp:
		return "node-up"
	case evNodeDown:
		return "node-down"
	default:
		return "unknown"
	}
}

type event struct {
	at    int64
	kind  eventKind
	jobID int64  // evComplete
	path  string // evNodeUp / evNodeDown
}

type eventHeap []event

func (h eventHeap) Len() int      { return len(h) }
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h eventHeap) Less(i, j int) bool {
	// Same-instant ordering is part of the deterministic contract:
	// completions first (a job finishing the moment its node dies is not
	// a casualty), then repairs, then failures.
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	if h[i].jobID != h[j].jobID {
		return h[i].jobID < h[j].jobID
	}
	return h[i].path < h[j].path
}
func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Scheduler runs jobs on a Fluxion traverser under a queue policy.
type Scheduler struct {
	tr     *traverser.Traverser
	policy QueuePolicy

	now      int64
	pending  []*Job // submit order; includes reserved jobs
	jobs     map[int64]*Job
	reserved map[int64]*Job
	events   eventHeap

	// Cycles counts scheduling cycles run.
	Cycles int
	// queueDepth bounds how many pending jobs each cycle plans
	// (flux-sched qmanager's queue-depth knob); 0 = unbounded.
	queueDepth int
	// maxRetries bounds failure-driven requeues per job; exceeding it
	// moves the job to StateFailed. 0 = unbounded retries.
	maxRetries int

	// wakeup buffers capacity deltas between cycles; plan and directives
	// are reusable per-cycle scratch.
	wakeup     wakeupIndex
	plan       cyclePlan
	directives []directive
	// stats tallies incremental-engine effectiveness (see Stats).
	stats Stats

	// defense, when non-nil, is the self-defense layer (defense.go):
	// panic fences, quarantine, the cycle watchdog, and admission
	// backpressure. Nil keeps every match on the raw zero-allocation
	// path.
	defense *defenseState

	// Failure-domain accounting, surfaced through Metrics.
	requeues    int
	lostCoreSec int64

	// resourceHook, when set, observes every node-down/node-up event the
	// event loop dispatches; fault injectors use it to schedule the
	// follow-up repair or next failure.
	resourceHook func(at int64, path string, down bool)

	// journal, when set, receives one effect record before every state
	// mutation (journal.go); jbuf is the reused record buffer, and
	// jDepth/jDirty track the open command unit for commit markers.
	journal func(*Rec)
	jbuf    Rec
	jDepth  int
	jDirty  bool
}

// SchedOption configures New.
type SchedOption func(*Scheduler)

// WithQueueDepth bounds how many pending jobs each scheduling cycle plans.
// Deep queues trade reservation fidelity for cycle latency exactly as in
// flux-sched's qmanager; 0 (the default) plans the whole queue.
func WithQueueDepth(n int) SchedOption {
	return func(s *Scheduler) { s.queueDepth = n }
}

// WithMaxRetries bounds how many times a job evicted by resource failures
// is requeued before landing in StateFailed. 0 retries forever; the
// default is DefaultMaxRetries.
func WithMaxRetries(n int) SchedOption {
	return func(s *Scheduler) { s.maxRetries = n }
}

// Stats counts scheduling work, surfacing what the incremental engine
// saves: MatchAttempts is every traverser match call (allocate or
// allocate-or-reserve); WokenJobs counts blocked jobs re-attempted because a
// delta intersected their signature; SkippedJobs counts blocked jobs a
// cycle proved undisturbed and did not re-match. The defense counters
// (defense.go) tally quarantined jobs, cycles run with the degradation
// ladder engaged, submits rejected by admission backpressure, and
// jobspecs rejected as invalid at submit.
type Stats struct {
	Cycles        int64
	MatchAttempts int64
	WokenJobs     int64
	SkippedJobs   int64
	// Quarantined counts jobs moved to StateQuarantined (including
	// re-quarantines after a release).
	Quarantined int64
	// DegradedCycles counts scheduling cycles that started with the
	// degradation ladder above normal.
	DegradedCycles int64
	// OverloadRejects counts submits rejected with ErrOverload.
	OverloadRejects int64
	// InvalidSpecRejects counts submits rejected with ErrInvalidSpec.
	InvalidSpecRejects int64
}

// Stats returns the scheduler's cumulative work counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Add accumulates o into st field by field (the sharded router sums its
// shard schedulers' counters).
func (st *Stats) Add(o Stats) {
	st.Cycles += o.Cycles
	st.MatchAttempts += o.MatchAttempts
	st.WokenJobs += o.WokenJobs
	st.SkippedJobs += o.SkippedJobs
	st.Quarantined += o.Quarantined
	st.DegradedCycles += o.DegradedCycles
	st.OverloadRejects += o.OverloadRejects
	st.InvalidSpecRejects += o.InvalidSpecRejects
}

// DefaultMaxRetries is the default failure-requeue bound per job.
const DefaultMaxRetries = 3

// SetResourceEventHook registers fn to observe every node-down/node-up
// event dispatched from the event queue (not direct NodeDown/NodeUp
// calls). Fault injectors use it to schedule follow-up events.
func (s *Scheduler) SetResourceEventHook(fn func(at int64, path string, down bool)) {
	s.resourceHook = fn
}

// New creates a scheduler at simulated time = the graph's planner base.
func New(tr *traverser.Traverser, policy QueuePolicy, opts ...SchedOption) (*Scheduler, error) {
	switch policy {
	case FCFS, EASY, Conservative:
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownPolicy, policy)
	}
	s := &Scheduler{
		tr:         tr,
		policy:     policy,
		now:        tr.Graph().Base(),
		jobs:       make(map[int64]*Job),
		reserved:   make(map[int64]*Job),
		maxRetries: DefaultMaxRetries,
	}
	for _, o := range opts {
		o(s)
	}
	s.wakeup.setNow(s.now)
	// Subscribe to the store's capacity deltas. Publication is synchronous
	// and the sink only buffers, so this is safe under graph locks.
	tr.Graph().SetDeltaSink(s.wakeup.publish)
	return s, nil
}

// Now returns the simulated clock.
func (s *Scheduler) Now() int64 { return s.now }

// Job returns a submitted job by ID.
func (s *Scheduler) Job(id int64) (*Job, bool) {
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all submitted jobs keyed by ID. The map is live.
func (s *Scheduler) Jobs() map[int64]*Job { return s.jobs }

// Submit enqueues a job without scheduling it; call Schedule (or Run) to
// plan the queue. Unsatisfiable jobs are rejected immediately, mirroring
// Fluxion's satisfiability check at ingest.
func (s *Scheduler) Submit(id int64, spec *jobspec.Jobspec) (*Job, error) {
	return s.SubmitPriority(id, spec, 0)
}

// SubmitPriority is Submit with an explicit queue priority (higher runs
// first; equal priorities keep submit order).
func (s *Scheduler) SubmitPriority(id int64, spec *jobspec.Jobspec, priority int) (*Job, error) {
	if _, dup := s.jobs[id]; dup {
		return nil, fmt.Errorf("sched: job %d already submitted", id)
	}
	// Structural and unknown-type validation happens before anything
	// else: a hostile spec must not reach the match kernel, the intern
	// table, or the journal.
	if err := s.tr.ValidateSpec(spec); err != nil {
		s.stats.InvalidSpecRejects++
		return nil, fmt.Errorf("%w: job %d: %v", ErrInvalidSpec, id, err)
	}
	if err := s.admit(); err != nil {
		return nil, fmt.Errorf("job %d: %w", id, err)
	}
	job := &Job{ID: id, Spec: spec, Submit: s.now, Priority: priority, State: StatePending}
	cjs, err := s.tr.Compile(spec)
	if err != nil {
		return nil, err
	}
	job.compiled = cjs
	ok, err := s.tr.MatchSatisfyCompiled(cjs)
	if err != nil {
		return nil, err
	}
	if s.journal != nil {
		s.jBegin()
		defer s.jEnd()
		s.jrec(Rec{Kind: RecSubmit, ID: id, At: s.now, Priority: priority, Unsat: !ok, Spec: spec})
	}
	if !ok {
		job.State = StateUnsatisfiable
		s.jobs[id] = job
		return job, nil
	}
	s.jobs[id] = job
	s.enqueue(job)
	return job, nil
}

// compiledSpec returns job.Spec compiled against the scheduler's graph,
// compiling lazily and caching on the job (jobs restored from a
// checkpoint or stolen from another shard reach here without passing
// through Submit).
func (s *Scheduler) compiledSpec(job *Job) (*jobspec.Compiled, error) {
	if job.compiled == nil {
		c, err := s.tr.Compile(job.Spec)
		if err != nil {
			return nil, err
		}
		job.compiled = c
	}
	return job.compiled, nil
}

// matchOp enumerates the traverser match entry points so the defense
// fence can dispatch by value — a closure per attempt would allocate on
// the zero-alloc hot path.
type matchOp uint8

const (
	opAllocateSig matchOp = iota
	opAllocateOrReserveSig
)

// dispatchMatch routes one match attempt through the defense fence when
// a defense layer is configured, or straight to the traverser otherwise
// (the zero-allocation hot path).
func (s *Scheduler) dispatchMatch(op matchOp, job *Job, at int64) (*traverser.Allocation, error) {
	if s.defense != nil {
		return s.fencedMatch(op, job, at)
	}
	return s.rawMatch(op, job, at)
}

// rawMatch is the unfenced dispatch across the match entry points. The
// Sig forms capture a blocking signature on ErrNoMatch, arming the
// incremental engine's skip test for later cycles; a captured
// reservation-probe signature additionally justifies conservative-mode
// skips (sigReserve).
func (s *Scheduler) rawMatch(op matchOp, job *Job, at int64) (*traverser.Allocation, error) {
	cjs, err := s.compiledSpec(job)
	if err != nil {
		return nil, err
	}
	switch op {
	case opAllocateSig:
		job.sigOK = false
		alloc, err := s.tr.MatchAllocateCompiledSig(job.ID, cjs, at, &job.sig)
		if err != nil && errors.Is(err, traverser.ErrNoMatch) {
			job.sigOK = true
			job.sigReserve = false
		}
		return alloc, err
	default: // opAllocateOrReserveSig
		job.sigOK = false
		alloc, err := s.tr.MatchAllocateOrReserveCompiledSig(job.ID, cjs, at, &job.sig)
		if err != nil && errors.Is(err, traverser.ErrNoMatch) {
			job.sigOK = true
			job.sigReserve = true
		}
		return alloc, err
	}
}

// matchAllocateSig matches job at time `at`, charging one attempt and
// capturing a blocking signature on failure.
func (s *Scheduler) matchAllocateSig(job *Job, at int64) (*traverser.Allocation, error) {
	s.stats.MatchAttempts++
	return s.dispatchMatch(opAllocateSig, job, at)
}

// matchAllocateOrReserveSig is matchAllocateSig's allocate-else-reserve
// form; the captured signature covers the reservation probe.
func (s *Scheduler) matchAllocateOrReserveSig(job *Job, at int64) (*traverser.Allocation, error) {
	s.stats.MatchAttempts++
	return s.dispatchMatch(opAllocateOrReserveSig, job, at)
}

// enqueue inserts a job into the pending queue in priority order (stable
// behind equal priorities). Requeued jobs re-enter here, behind peers of
// their priority.
func (s *Scheduler) enqueue(job *Job) {
	i := len(s.pending)
	for i > 0 && s.pending[i-1].Priority < job.Priority {
		i--
	}
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = job
}

// Schedule runs one scheduling cycle at the current simulated time under
// the queue policy. The cycle re-attempts only jobs whose blocking
// signature intersects a capacity delta since the last cycle, and carries
// valid reservations over; its decisions are those of the qmanager loop
// that drops every reservation and re-plans the whole queue
// (incremental.go). Attempts run one at a time, in queue order, on the
// scheduler's one traverser; throughput beyond one writer comes from
// shards (internal/shard), not from threads inside a cycle.
func (s *Scheduler) Schedule() {
	s.jBegin()
	defer s.jEnd()
	s.Cycles++
	s.stats.Cycles++
	s.jrec(Rec{Kind: RecCycle})
	if d := s.defense; d != nil {
		if d.level > ladderNormal {
			s.stats.DegradedCycles++
		}
		if d.cfg.CycleDeadline > 0 {
			// Watchdog: args to a deferred call evaluate now, so the
			// ladder observes this cycle's true duration on every exit
			// path below.
			defer d.observeCycle(time.Now())
		}
	}

	s.wakeup.drain(&s.plan)
	if s.skim(); len(s.events) > 0 && s.events[0].at <= s.now {
		// The clock was advanced onto an event that has not fired: a
		// span ending there left the attempt window with no free
		// published yet, so no hintless signature may wait for one.
		s.plan.endedOverflow = true
	}
	// Mute the sink for the cycle: our own cancels and matches are
	// ordered by the queue walk and must not wake next cycle.
	s.wakeup.mute(true)
	defer s.wakeup.mute(false)
	// Batch the cycle's epoch transitions: every mutation the cycle
	// commits publishes as a single transition at cycle end. Registered
	// after the mute defer so
	// (LIFO) the batch closes — flushing its buffered deltas — while the
	// sink is still muted.
	g := s.tr.Graph()
	g.BeginEpochBatch()
	defer g.EndEpochBatch()
	s.scheduleIncremental()
}

// start transitions a job to running and schedules its completion. A
// job arriving here in StateReserved is a maturing reservation
// (convert): its allocation is already installed, so the journal records
// the flip instead of the placement.
func (s *Scheduler) start(job *Job, alloc *traverser.Allocation) {
	if s.journal != nil {
		if job.State == StateReserved {
			s.jrec(Rec{Kind: RecConvert, ID: job.ID, At: alloc.At, Duration: alloc.Duration})
		} else {
			s.jrec(Rec{Kind: RecStart, ID: job.ID, At: alloc.At, Duration: alloc.Duration,
				Grants: alloc.Grants()})
		}
	}
	job.State = StateRunning
	job.Alloc = alloc
	job.StartAt = alloc.At
	job.EndAt = alloc.At + alloc.Duration
	heap.Push(&s.events, event{at: job.EndAt, kind: evComplete, jobID: job.ID})
}

// reserve records a future reservation. The job keeps its queue position
// (callers append it to the surviving pending list).
func (s *Scheduler) reserve(job *Job, alloc *traverser.Allocation) {
	if s.journal != nil {
		s.jrec(Rec{Kind: RecReserve, ID: job.ID, At: alloc.At, Duration: alloc.Duration,
			Grants: alloc.Grants()})
	}
	job.State = StateReserved
	job.Alloc = alloc
	s.reserved[job.ID] = job
}

// stale reports whether an event no longer applies: a completion whose job
// was evicted (and possibly restarted with a different end time) must not
// fire. Resource events are never stale.
func (s *Scheduler) stale(e event) bool {
	if e.kind != evComplete {
		return false
	}
	job := s.jobs[e.jobID]
	return job == nil || job.State != StateRunning || job.EndAt != e.at
}

// skim drops stale events from the head of the queue so HasEvents,
// NextEventAt, and AdvanceTo see only events that will actually fire.
func (s *Scheduler) skim() {
	for len(s.events) > 0 && s.stale(s.events[0]) {
		heap.Pop(&s.events)
	}
}

// HasEvents reports whether completion or resource events are pending.
func (s *Scheduler) HasEvents() bool {
	s.skim()
	return len(s.events) > 0
}

// NextEventAt returns the time of the next live event (only valid when
// HasEvents).
func (s *Scheduler) NextEventAt() int64 {
	s.skim()
	if len(s.events) == 0 {
		return -1
	}
	return s.events[0].at
}

// AdvanceTo moves the simulated clock forward to t without processing
// events; it fails if that would skip a pending event or move backwards.
// Use it to model job arrivals between completions.
func (s *Scheduler) AdvanceTo(t int64) error {
	if t < s.now {
		return fmt.Errorf("sched: cannot move clock backwards (%d -> %d)", s.now, t)
	}
	s.skim()
	if len(s.events) > 0 && s.events[0].at < t {
		return fmt.Errorf("sched: advancing to %d would skip event at %d", t, s.events[0].at)
	}
	s.jBegin()
	defer s.jEnd()
	s.jrec(Rec{Kind: RecClock, At: t})
	s.setNow(t)
	return nil
}

// setNow moves the clock. The wakeup index moves with it, so it can drop
// frees that are already past when they are published.
func (s *Scheduler) setNow(t int64) {
	s.now = t
	s.wakeup.setNow(t)
}

// Step advances the clock to the next event, dispatches every event firing
// at that instant (completions before repairs before failures), and runs a
// scheduling cycle. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	s.skim()
	if len(s.events) == 0 {
		return false
	}
	s.jBegin()
	defer s.jEnd()
	e := heap.Pop(&s.events).(event)
	s.setNow(e.at)
	s.jrec(Rec{Kind: RecClock, At: e.at})
	s.dispatch(e)
	for {
		s.skim()
		if len(s.events) == 0 || s.events[0].at != s.now {
			break
		}
		s.dispatch(heap.Pop(&s.events).(event))
	}
	s.Schedule()
	return true
}

// dispatch applies one event at the current clock. Node events journal
// their removal from the heap (completions need not: a replayed
// completion leaves its event stale, and stale events never fire).
func (s *Scheduler) dispatch(e event) {
	switch e.kind {
	case evComplete:
		s.complete(e.jobID)
	case evNodeDown:
		s.jrec(Rec{Kind: RecEventPop, At: e.at, Down: true, Path: e.path})
		_, _ = s.NodeDown(e.path)
		if s.resourceHook != nil {
			s.resourceHook(e.at, e.path, true)
		}
	case evNodeUp:
		s.jrec(Rec{Kind: RecEventPop, At: e.at, Down: false, Path: e.path})
		_ = s.NodeUp(e.path)
		if s.resourceHook != nil {
			s.resourceHook(e.at, e.path, false)
		}
	}
}

func (s *Scheduler) complete(id int64) {
	job := s.jobs[id]
	if job == nil || job.State != StateRunning {
		return
	}
	s.jrec(Rec{Kind: RecComplete, ID: id})
	_ = s.tr.Cancel(id)
	job.State = StateCompleted
}

// ScheduleNodeDown enqueues a failure of the containment subtree at path
// for simulated time at.
func (s *Scheduler) ScheduleNodeDown(at int64, path string) error {
	return s.scheduleResource(at, path, evNodeDown)
}

// ScheduleNodeUp enqueues a repair of the containment subtree at path for
// simulated time at.
func (s *Scheduler) ScheduleNodeUp(at int64, path string) error {
	return s.scheduleResource(at, path, evNodeUp)
}

func (s *Scheduler) scheduleResource(at int64, path string, kind eventKind) error {
	if at < s.now {
		return fmt.Errorf("sched: %s at %d is in the past (now %d)", kind, at, s.now)
	}
	s.jBegin()
	defer s.jEnd()
	s.jrec(Rec{Kind: RecEvent, At: at, Down: kind == evNodeDown, Path: path})
	heap.Push(&s.events, event{at: at, kind: kind, path: path})
	return nil
}

// NodeDown takes the containment subtree at path out of service now: jobs
// running or reserved on it are evicted and requeued with their retry
// counter bumped (running jobs only); a job evicted more than MaxRetries
// times moves to StateFailed. Lost core-seconds — work the evicted jobs
// had completed and must redo — are accumulated for Metrics. The evicted
// job IDs are returned. Callers driving the scheduler directly should run
// Schedule afterwards; event-loop dispatch does so automatically.
func (s *Scheduler) NodeDown(path string) ([]int64, error) {
	s.jBegin()
	defer s.jEnd()
	evicted, err := s.tr.MarkDown(path)
	if err != nil {
		return nil, err
	}
	// Journal the mark ahead of the per-job eviction records; replay
	// re-runs MarkDown (reproducing graph status and traverser-side
	// evictions) and the records below reproduce the job handling.
	// MarkDown returns evictions in ascending job-ID order, so the
	// record stream is deterministic.
	s.jrec(Rec{Kind: RecDown, Path: path})
	ids := make([]int64, 0, len(evicted))
	for _, alloc := range evicted {
		ids = append(ids, alloc.JobID)
		job := s.jobs[alloc.JobID]
		if job == nil {
			continue
		}
		switch job.State {
		case StateRunning:
			s.requeues++
			lost := alloc.Units("core") * (s.now - job.StartAt)
			s.lostCoreSec += lost
			job.Retries++
			job.Alloc = nil
			job.sigOK = false
			if s.maxRetries > 0 && job.Retries > s.maxRetries {
				s.jrec(Rec{Kind: RecFail, ID: job.ID, Retries: job.Retries, LostCore: lost})
				job.State = StateFailed
				continue
			}
			s.jrec(Rec{Kind: RecRequeue, ID: job.ID, Retries: job.Retries, LostCore: lost})
			job.State = StatePending
			s.enqueue(job)
		case StateReserved:
			// A reservation on failed resources is just re-planned;
			// the job never started, so it costs no retry.
			s.jrec(Rec{Kind: RecDrop, ID: job.ID})
			delete(s.reserved, job.ID)
			job.State = StatePending
			job.Alloc = nil
			job.sigOK = false
		}
	}
	return ids, nil
}

// NodeUp returns the containment subtree at path to service now. The
// restored capacity is used from the next scheduling cycle on.
func (s *Scheduler) NodeUp(path string) error {
	s.jBegin()
	defer s.jEnd()
	if err := s.tr.MarkUp(path); err != nil {
		return err
	}
	s.jrec(Rec{Kind: RecUp, Path: path})
	return nil
}

// Unfinished counts jobs still pending, reserved, or running — the signal
// fault injectors use to stop scheduling new failures once the workload
// has drained.
func (s *Scheduler) Unfinished() int {
	n := 0
	for _, j := range s.jobs {
		switch j.State {
		case StatePending, StateReserved, StateRunning:
			n++
		}
	}
	return n
}

// Run schedules the queue and steps the clock until every satisfiable job
// has completed (or maxSteps cycles elapse; 0 means unbounded). It returns
// the number of completed jobs.
func (s *Scheduler) Run(maxSteps int) int {
	s.Schedule()
	steps := 0
	for s.Step() {
		steps++
		if maxSteps > 0 && steps >= maxSteps {
			break
		}
	}
	done := 0
	for _, j := range s.jobs {
		if j.State == StateCompleted {
			done++
		}
	}
	return done
}

// Counts tallies jobs per state.
func (s *Scheduler) Counts() map[JobState]int {
	out := make(map[JobState]int)
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}
