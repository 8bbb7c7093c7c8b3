package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// newSchedOpts builds a scheduler over a racks×nodes×cores system with
// arbitrary options.
func newSchedOpts(t testing.TB, policy QueuePolicy, racks, nodes, cores int64, opts ...SchedOption) *Scheduler {
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
	s, err := New(tr, policy, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// arrival is one workload entry for the randomized parity driver.
type arrival struct {
	at       int64
	id       int64
	priority int
	spec     *jobspec.Jobspec
}

// randomWorkload generates a reproducible arrival sequence: mixed node
// and core requests, staggered arrival times, and occasional priority
// jumps (which insert ahead of standing reservations).
func randomWorkload(seed int64, n int) []arrival {
	return workload(seed, n, 1, 5)
}

// gridWorkload is randomWorkload on a 10-second grid with a priority jump
// every third job or so: arrivals, completions, reservation starts and
// fault events keep landing on the same instant.
func gridWorkload(seed int64, n int) []arrival {
	return workload(seed, n, 10, 3)
}

// workload draws arrival gaps and durations in multiples of tick and
// gives about one job in jumpEvery a raised priority.
func workload(seed int64, n int, tick int64, jumpEvery int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, 0, n)
	at := int64(0)
	for i := 0; i < n; i++ {
		at += tick * rng.Int63n(40/tick)
		nodes := 1 + rng.Int63n(3)
		cores := int64(4)
		if rng.Intn(3) == 0 {
			cores = 1 + rng.Int63n(4) // fragmenting core-level requests
		}
		dur := tick * (20/tick + rng.Int63n(150/tick))
		prio := 0
		if rng.Intn(jumpEvery) == 0 {
			prio = 1 + rng.Intn(3)
		}
		out = append(out, arrival{
			at: at, id: int64(i + 1), priority: prio,
			spec: nodeJob(nodes, cores, dur),
		})
	}
	return out
}

// engine is the discrete-event surface the parity drivers replay a
// workload through: *Scheduler and *reference implement it.
type engine interface {
	SubmitPriority(id int64, spec *jobspec.Jobspec, priority int) (*Job, error)
	Schedule()
	Step() bool
	HasEvents() bool
	NextEventAt() int64
	AdvanceTo(t int64) error
	ScheduleNodeDown(at int64, path string) error
	ScheduleNodeUp(at int64, path string) error
	Run(maxSteps int) int
	Jobs() map[int64]*Job
	Now() int64
}

// sameDecisions fails t unless got decided every job exactly as want did
// (state, start, end, retries, and the nodes a finished job ran on) and
// finished at the same clock.
func sameDecisions(t *testing.T, label string, want, got engine) {
	t.Helper()
	sameStates(t, label, want, got)
	for id, w := range want.Jobs() {
		if g := got.Jobs()[id]; w.State == StateCompleted && nodePaths(w) != nodePaths(g) {
			t.Errorf("%s: job %d placed on %s, want %s", label, id, nodePaths(g), nodePaths(w))
		}
	}
	if want.Now() != got.Now() {
		t.Errorf("%s: makespan diverged: %d vs %d", label, want.Now(), got.Now())
	}
}

// sameStates fails t unless every job of got is where want has it: same
// state, retries, start and end, and a running or reserved job on the
// same nodes from the same start.
func sameStates(t *testing.T, label string, want, got engine) {
	t.Helper()
	if len(want.Jobs()) != len(got.Jobs()) {
		t.Fatalf("%s: %d jobs vs %d", label, len(want.Jobs()), len(got.Jobs()))
	}
	for id, w := range want.Jobs() {
		g, ok := got.Jobs()[id]
		if !ok {
			t.Fatalf("%s: job %d missing", label, id)
		}
		if w.State != g.State || w.StartAt != g.StartAt || w.EndAt != g.EndAt || w.Retries != g.Retries {
			t.Fatalf("%s: at t=%d job %d diverged: want %v@[%d,%d] retries=%d, got %v@[%d,%d] retries=%d",
				label, want.Now(), id, w.State, w.StartAt, w.EndAt, w.Retries, g.State, g.StartAt, g.EndAt, g.Retries)
		}
		if (w.State == StateRunning || w.State == StateReserved) &&
			(w.Alloc.At != g.Alloc.At || nodePaths(w) != nodePaths(g)) {
			t.Fatalf("%s: at t=%d %v job %d holds %s from %d, want %s from %d",
				label, want.Now(), w.State, id, nodePaths(g), g.Alloc.At, nodePaths(w), w.Alloc.At)
		}
	}
}

func nodePaths(j *Job) string {
	var paths []string
	for _, v := range j.Alloc.Nodes() {
		paths = append(paths, v.Path())
	}
	return fmt.Sprint(paths)
}

// drive replays an arrival sequence through want and every engine in got
// in lockstep: events fire in order, each arrival triggers a scheduling
// cycle, and the run drains. After every cycle each engine's job states
// must match want's, so a carried reservation must be the one want
// re-plans; at the end their decisions must match (sameDecisions).
func drive(t *testing.T, label string, work []arrival, want engine, got ...engine) {
	t.Helper()
	all := append([]engine{want}, got...)
	cycle := func(run func(engine)) {
		t.Helper()
		for _, e := range all {
			run(e)
		}
		for i, e := range got {
			sameStates(t, fmt.Sprintf("%s/engine%d", label, i), want, e)
		}
	}
	schedule := func(e engine) { e.Schedule() }
	step := func(e engine) { e.Step() }
	cycle(schedule)
	for _, a := range work {
		for want.HasEvents() && want.NextEventAt() <= a.at {
			cycle(step)
		}
		for _, e := range all {
			if err := e.AdvanceTo(a.at); err != nil {
				t.Fatal(err)
			}
			if _, err := e.SubmitPriority(a.id, a.spec, a.priority); err != nil {
				t.Fatal(err)
			}
		}
		cycle(schedule)
	}
	cycle(schedule)
	for want.HasEvents() {
		cycle(step)
	}
	for i, e := range got {
		sameDecisions(t, fmt.Sprintf("%s/engine%d", label, i), want, e)
	}
}

// workloads is both workload shapes for one seed, by name.
func workloads(seed int64, n int) map[string][]arrival {
	return map[string][]arrival{"random": randomWorkload(seed, n), "grid": gridWorkload(seed, n)}
}

// wideWorkload is n jobs of 1 to 16 whole 4-core nodes for the 2-rack ×
// 16-node wide system: a job's nodes may span both racks, so first-fit
// candidate lists are long and their pruned lengths change as the clock
// moves.
func wideWorkload(seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]arrival, 0, n)
	at := int64(0)
	for i := 0; i < n; i++ {
		at += 10 * rng.Int63n(6)
		prio := 0
		if rng.Intn(5) == 0 {
			prio = 1 + rng.Intn(3)
		}
		out = append(out, arrival{
			at: at, id: int64(i + 1), priority: prio,
			spec: nodeJob(1+rng.Int63n(16), 4, 10*(2+rng.Int63n(15))),
		})
	}
	return out
}

// TestIncrementalMatchesFullDecisions is the decision-parity property
// test: random workloads (with priority jumps that insert ahead of
// standing reservations) run through the engine must produce exactly the
// per-job states and decisions of the reference qmanager loop, cycle by
// cycle, for every policy — on the 1×4×4 system and on the 2×16×4 wide system, where a carried
// reservation must be exactly the plan the reference makes afresh.
func TestIncrementalMatchesFullDecisions(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		for seed := int64(1); seed <= 5; seed++ {
			for shape, work := range workloads(seed, 40) {
				ref := newReference(t, policy, 1, 4, 4, 0, DefaultMaxRetries)
				drive(t, fmt.Sprintf("%s/%s/seed%d", policy, shape, seed), work,
					ref, newSchedOpts(t, policy, 1, 4, 4))
			}
		}
		for _, seed := range wideSeeds {
			ref := newReference(t, policy, 2, 16, 4, 0, DefaultMaxRetries)
			drive(t, fmt.Sprintf("%s/wide/seed%d", policy, seed), wideWorkload(seed, 60),
				ref, newSchedOpts(t, policy, 2, 16, 4))
		}
	}
}

// steeredSeeds are the wideWorkload seeds (of the first 80, at 60 jobs)
// on which the engine diverged from the reference under the old
// first-fit steering, which rotated candidate lists by a job-ID hash
// modulo their pruned length: EASY seeds 6, 66, 77 and conservative
// seeds 56, 71.
var steeredSeeds = []int64{6, 56, 66, 71, 77}

// wideSeeds are the wideWorkload seeds the wide-system parity test
// replays: the steered ones and a few that never diverged.
var wideSeeds = append([]int64{1, 2, 3, 4}, steeredSeeds...)

// TestIncrementalParityUnderFaults repeats the parity check with a
// node-down/node-up drill interleaved into the timeline (structural
// deltas must wake everything the reference re-plans).
func TestIncrementalParityUnderFaults(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		for seed := int64(1); seed <= 3; seed++ {
			for shape, work := range workloads(seed, 30) {
				ref := newReference(t, policy, 1, 4, 4, 0, DefaultMaxRetries)
				eng := newSchedOpts(t, policy, 1, 4, 4)
				for _, e := range []engine{eng, ref} {
					if err := e.ScheduleNodeDown(60, "/cluster0/rack0/node1"); err != nil {
						t.Fatal(err)
					}
					if err := e.ScheduleNodeUp(200, "/cluster0/rack0/node1"); err != nil {
						t.Fatal(err)
					}
				}
				drive(t, fmt.Sprintf("%s/%s/seed%d", policy, shape, seed), work, ref, eng)
			}
		}
	}
}

// TestIncrementalParityQueueDepth checks parity under a queue-depth bound
// of 3: priority jumps push standing reservations past the bound, so the
// engine must demote them exactly where the reference stops
// re-creating them. Under EASY, seed 85 demotes the head reservation in a
// cycle that then matches, so it also checks that the match sees the
// cycle's demotions.
func TestIncrementalParityQueueDepth(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		for _, seed := range []int64{1, 2, 3, 4, 5, 85} {
			for shape, work := range workloads(seed, 40) {
				ref := newReference(t, policy, 1, 4, 4, 3, DefaultMaxRetries)
				drive(t, fmt.Sprintf("%s/%s/seed%d", policy, shape, seed), work,
					ref, newSchedOpts(t, policy, 1, 4, 4, WithQueueDepth(3)))
			}
		}
	}
}

// TestIncrementalParityMaxRetries flaps one node down and up all through
// the run under WithMaxRetries(1): jobs evicted twice land in
// StateFailed, and the engine must fail, requeue and re-plan exactly the
// jobs the reference does.
func TestIncrementalParityMaxRetries(t *testing.T) {
	failed := 0
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		for seed := int64(1); seed <= 3; seed++ {
			for shape, work := range workloads(seed, 30) {
				ref := newReference(t, policy, 1, 4, 4, 0, 1)
				eng := newSchedOpts(t, policy, 1, 4, 4, WithMaxRetries(1))
				for _, e := range []engine{eng, ref} {
					for at := int64(50); at < 1500; at += 90 {
						if err := e.ScheduleNodeDown(at, "/cluster0/rack0/node0"); err != nil {
							t.Fatal(err)
						}
						if err := e.ScheduleNodeUp(at+30, "/cluster0/rack0/node0"); err != nil {
							t.Fatal(err)
						}
					}
				}
				drive(t, fmt.Sprintf("%s/%s/seed%d", policy, shape, seed), work, ref, eng)
				for _, j := range ref.Jobs() {
					if j.State == StateFailed {
						failed++
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no job reached StateFailed: the retry bound was never exercised")
	}
	t.Logf("%d jobs failed across the reference runs", failed)
}

// TestIncrementalMatchAttemptReduction is the headline perf property: on
// a deep conservative queue the engine must make at least 5× fewer match
// attempts than the reference loop, with identical decisions.
func TestIncrementalMatchAttemptReduction(t *testing.T) {
	const pendingJobs = 520
	ref := newReference(t, Conservative, 1, 8, 4, 0, DefaultMaxRetries)
	inc := newSchedOpts(t, Conservative, 1, 8, 4)
	for _, e := range []engine{ref, inc} {
		for i := int64(1); i <= pendingJobs; i++ {
			if _, err := e.SubmitPriority(i, nodeJob(1, 4, 100), 0); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(0)
	}
	sameDecisions(t, "deep queue", ref, inc)
	ra, ia := ref.attempts, inc.Stats().MatchAttempts
	if ia == 0 || ra < 5*ia {
		t.Fatalf("engine saved too little: reference=%d engine=%d (want >= 5x)", ra, ia)
	}
	if inc.Stats().SkippedJobs == 0 {
		t.Fatal("no jobs were skipped on a deep queue")
	}
	t.Logf("attempts: reference=%d engine=%d (%.1fx), woken=%d skipped=%d",
		ra, ia, float64(ra)/float64(ia), inc.Stats().WokenJobs, inc.Stats().SkippedJobs)
}

// TestIncrementalEASYSkipsBackfill checks the EASY steady state: blocked
// backfill candidates are signature-skipped instead of re-matched.
func TestIncrementalEASYSkipsBackfill(t *testing.T) {
	s := newSchedOpts(t, EASY, 1, 2, 4)
	mustSubmit(t, s, 1, nodeJob(2, 4, 100)) // fills the system
	mustSubmit(t, s, 2, nodeJob(2, 4, 100)) // head: reserves at 100
	mustSubmit(t, s, 3, nodeJob(2, 4, 100)) // blocked backfill candidate
	mustSubmit(t, s, 4, nodeJob(2, 4, 100)) // blocked backfill candidate
	s.Schedule()
	base := s.Stats()
	// An empty-delta cycle must re-attempt nothing: the head reservation
	// is carried, the backfill candidates are signature-skipped.
	s.Schedule()
	st := s.Stats()
	if got := st.MatchAttempts - base.MatchAttempts; got != 0 {
		t.Fatalf("idle cycle did %d match attempts", got)
	}
	if st.SkippedJobs <= base.SkippedJobs {
		t.Fatal("idle cycle skipped nothing")
	}
	if done := s.Run(0); done != 4 {
		t.Fatalf("completed = %d", done)
	}
}

// TestIncrementalPlannerInvariants runs a workload under the incremental
// engine and validates every vertex planner and pruning filter afterward.
func TestIncrementalPlannerInvariants(t *testing.T) {
	s := newSchedOpts(t, Conservative, 2, 4, 4)
	drive(t, "invariants", randomWorkload(7, 60), s)
	g := s.tr.Graph()
	for _, v := range g.Vertices() {
		if p := v.Planner(); p != nil {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("vertex %s planner: %v", v.Path(), err)
			}
		}
		if f := v.Filter(); f != nil {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("vertex %s filter: %v", v.Path(), err)
			}
		}
	}
}

// TestIncrementalDeltaPublicationRace hammers the wakeup index from
// concurrent publishers while the scheduler runs cycles; run with -race.
// Spurious deltas are always sound (they can only cause extra wakes), so
// the assertion is just completion plus data-race freedom.
func TestIncrementalDeltaPublicationRace(t *testing.T) {
	s := newSchedOpts(t, EASY, 1, 4, 4)
	g := s.tr.Graph()
	nodes := g.ByType("node")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := nodes[(i+w)%len(nodes)]
				switch i % 3 {
				case 0:
					g.PublishSpanDelta(resgraph.DeltaFree, v, 1, int64(i), int64(i+100))
				case 1:
					g.PublishSpanDelta(resgraph.DeltaClaim, v, 1, int64(i), int64(i+100))
				default:
					g.PublishSpanDelta(resgraph.DeltaFree, v, 2, int64(i+50), int64(i+200))
				}
				i++
			}
		}(w)
	}
	for i := int64(1); i <= 40; i++ {
		mustSubmit(t, s, i, nodeJob(1+i%3, 4, 30+(i%5)*20))
	}
	done := s.Run(0)
	close(stop)
	wg.Wait()
	if done != 40 {
		t.Fatalf("completed = %d", done)
	}
}

// TestIncrementalCheckpointResume verifies a checkpoint taken mid-run
// resumes under the incremental engine: the first post-resume cycle
// re-plans everything (signatures are transient) and the run completes.
func TestIncrementalCheckpointResume(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4)
	specs := map[int64]*jobspec.Jobspec{}
	for i := int64(1); i <= 6; i++ {
		sp := nodeJob(1+i%2, 4, 50)
		specs[i] = sp
		mustSubmit(t, s, i, sp)
	}
	s.Schedule()
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the scheduler over the same (still-live) traverser, as a
	// crash-recovery drill would over a restored one.
	r, err := Resume(s.tr, data, specs)
	if err != nil {
		t.Fatal(err)
	}
	if done := r.Run(0); done != 6 {
		t.Fatalf("completed = %d", done)
	}
	if r.Stats().MatchAttempts == 0 {
		t.Fatal("post-resume run did no matching")
	}
}

// TestStatsCycles checks the cycle counter mirrors Cycles.
func TestStatsCycles(t *testing.T) {
	s := newSchedOpts(t, FCFS, 1, 1, 1)
	s.Schedule()
	s.Schedule()
	if st := s.Stats(); st.Cycles != 2 || int(st.Cycles) != s.Cycles {
		t.Fatalf("stats = %+v, Cycles = %d", st, s.Cycles)
	}
}

// TestPlanSameWhenMadeEarlier is the property that lets the engine carry
// a reservation: on the engine's traverser, a job's plan for time T is the
// same whether it is made at T or at any earlier clock, when only
// on-schedule completions and claims made around the standing plan (the
// jobs behind it that start meanwhile) happen in between. Whole-node jobs
// of 1 to 16 nodes on the 2×16×4 wide system are planned at time 0; then
// the clock steps through their completions up to T, jobs of 1 to 4 nodes
// start at each step where they fit, and the probe job is re-planned.
// Under the old first-fit steering, seeds 16, 116, 137, 152, 155, 176 and
// 179 re-planned onto other nodes: a rack filled by the jobs started
// meanwhile shortened the candidate list the rotation was taken modulo.
func TestPlanSameWhenMadeEarlier(t *testing.T) {
	const probe = 1000
	replans := 0
	for seed := int64(1); seed <= 200; seed++ {
		tr := newSchedOpts(t, Conservative, 2, 16, 4).tr
		rng := rand.New(rand.NewSource(seed))
		job := func() *jobspec.Jobspec { return nodeJob(1+rng.Int63n(16), 4, 10*(2+rng.Int63n(15))) }
		ends := map[int64]int64{} // background job → completion time
		id := int64(1)
		for ; id <= 24; id++ {
			a, err := tr.MatchAllocateOrReserve(id, job(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ends[id] = a.At + a.Duration
		}
		spec := job()
		plan := func(now int64) (int64, string) {
			a, err := tr.MatchAllocateOrReserve(probe, spec, now)
			if err != nil {
				t.Fatal(err)
			}
			return a.At, nodePaths(&Job{Alloc: a})
		}
		at, nodes := plan(0)
		for now := int64(0); ; {
			next := int64(-1) // the next completion after now, at or before T
			for _, end := range ends {
				if end > now && end <= at && (next < 0 || end < next) {
					next = end
				}
			}
			if next < 0 {
				break
			}
			now = next
			for j, end := range ends {
				if end == now {
					if err := tr.Cancel(j); err != nil {
						t.Fatal(err)
					}
					delete(ends, j)
				}
			}
			for k := 0; k < 8; k++ {
				if a, err := tr.MatchAllocate(id, nodeJob(1+rng.Int63n(4), 4, 10*(2+rng.Int63n(15))), now); err == nil {
					ends[id] = a.At + a.Duration
				}
				id++
			}
			if err := tr.Cancel(probe); err != nil {
				t.Fatal(err)
			}
			replans++
			if gotAt, gotNodes := plan(now); gotAt != at || gotNodes != nodes {
				t.Fatalf("seed %d: planned at t=%d the job starts at %d on %s; planned at t=0: %d on %s",
					seed, now, gotAt, gotNodes, at, nodes)
			}
		}
	}
	if replans < 100 {
		t.Fatalf("only %d re-plans before the planned start: the workload does not test carrying", replans)
	}
}

// TestOnScheduleCompletionKeepsReservations: a 16-node job on a 2×16×32
// system ends on time and publishes 16 × 33 frees, more than the wakeup
// index buffers. Those frees all end at the completion instant, so none
// can move a reservation: the Step that completes the job must carry the
// standing conservative reservations behind it (no match attempt), and
// every decision must still be the reference's.
func TestOnScheduleCompletionKeepsReservations(t *testing.T) {
	eng := newSchedOpts(t, Conservative, 2, 16, 32)
	ref := newReference(t, Conservative, 2, 16, 32, 0, DefaultMaxRetries)
	const end = 100
	frees := 0
	g := eng.tr.Graph()
	g.SetDeltaSink(func(d resgraph.Delta) {
		if d.Kind == resgraph.DeltaFree && d.To == end {
			frees++
		}
		eng.wakeup.publish(d)
	})
	jobs := []*jobspec.Jobspec{
		nodeJob(16, 32, end), // the big job: ends on time at 100
		nodeJob(16, 32, 300), // holds the other rack until 300
		nodeJob(32, 32, 50),  // reserved at 300
		nodeJob(8, 32, 50),   // reserved at 100, where the big job ends
		nodeJob(20, 32, 80),  // reserved at 350
		nodeJob(4, 32, 150),  // reserved at 100 too
	}
	for _, e := range []engine{ref, eng} {
		for i, spec := range jobs {
			if _, err := e.SubmitPriority(int64(i+1), spec, 0); err != nil {
				t.Fatal(err)
			}
		}
		e.Schedule()
	}
	sameStates(t, "submitted", ref, eng)
	reserved := 0
	for _, j := range eng.Jobs() {
		if j.State == StateReserved {
			reserved++
		}
	}
	if reserved < 3 {
		t.Fatalf("%d reservations stand behind the big job, want at least 3", reserved)
	}
	if eng.NextEventAt() != end {
		t.Fatalf("next event at %d, want the big job's completion at %d", eng.NextEventAt(), end)
	}
	attempts := eng.Stats().MatchAttempts
	ref.Step()
	eng.Step()
	sameStates(t, "big job completed", ref, eng)
	if frees <= maxFreeDeltas {
		t.Fatalf("the completion published %d frees, want more than %d", frees, maxFreeDeltas)
	}
	if got := eng.Stats().MatchAttempts; got != attempts {
		t.Errorf("completing the big job on time cost %d match attempts, want 0", got-attempts)
	}
	for ref.HasEvents() {
		ref.Step()
		eng.Step()
		sameStates(t, fmt.Sprintf("t=%d", ref.Now()), ref, eng)
	}
	sameDecisions(t, "drained", ref, eng)
}

// TestOverflowReplansMaturingReservation: frees that reach past the clock
// and overflow the wakeup index still re-plan a reservation that matures
// in that cycle. Job 3 is reserved at 50 on rack1; at 50, withdrawing the
// running 16-node job 1 early frees all of rack0 (16 × 33 frees, more
// than the index keeps), so the first fit at 50 is rack0, not the plan.
func TestOverflowReplansMaturingReservation(t *testing.T) {
	s := newSchedOpts(t, Conservative, 2, 16, 32)
	mustSubmit(t, s, 1, nodeJob(16, 32, 100))
	mustSubmit(t, s, 2, nodeJob(16, 32, 50))
	mustSubmit(t, s, 3, nodeJob(16, 32, 50))
	s.Schedule()
	j3, _ := s.Job(3)
	if j3.State != StateReserved || j3.Alloc.At != 50 || !strings.Contains(nodePaths(j3), "rack1") {
		t.Fatalf("job 3: %v at %d on %s, want reserved at 50 on rack1", j3.State, j3.Alloc.At, nodePaths(j3))
	}
	if err := s.AdvanceTo(50); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if j3.State != StateRunning || j3.StartAt != 50 || strings.Contains(nodePaths(j3), "rack1") {
		t.Fatalf("job 3: %v at %d on %s, want running at 50 on rack0", j3.State, j3.StartAt, nodePaths(j3))
	}
}
