package sched

import (
	"fmt"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// newSchedWorkers is newSched with a match-worker count.
func newSchedWorkers(t *testing.T, policy QueuePolicy, racks, nodes, cores int64, workers int) *Scheduler {
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
	s, err := New(tr, policy, WithMatchWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runWorkload submits a fixed mixed workload and drains the event loop,
// returning the scheduler for inspection. Arrival pattern: a node-hogging
// head job, mid-size followers, and small backfill candidates.
func runWorkload(t *testing.T, e engine) {
	t.Helper()
	id := int64(1)
	submit := func(nodes, dur int64) {
		if _, err := e.SubmitPriority(id, nodeJob(nodes, 4, dur), 0); err != nil {
			t.Fatal(err)
		}
		id++
	}
	submit(4, 100) // fills the system
	submit(4, 100) // must wait for everything
	submit(2, 40)  // EASY/Conservative backfill candidates
	submit(1, 30)
	submit(1, 200)
	submit(2, 60)
	e.Run(0)
}

// TestParallelMatchesSequentialDecisions runs the same workload through
// the sequential loop and the parallel pipeline at several worker counts
// and asserts the scheduling decisions — per-job start and end times —
// are identical for every queue policy. (Vertex placement may differ; the
// decision timeline must not.)
func TestParallelMatchesSequentialDecisions(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		seq := newSchedWorkers(t, policy, 1, 4, 4, 1)
		runWorkload(t, seq)
		for _, workers := range []int{2, 4} {
			par := newSchedWorkers(t, policy, 1, 4, 4, workers)
			runWorkload(t, par)
			for id, sj := range seq.Jobs() {
				pj, ok := par.Job(id)
				if !ok {
					t.Fatalf("%s/%d workers: job %d missing", policy, workers, id)
				}
				if sj.State != pj.State || sj.StartAt != pj.StartAt || sj.EndAt != pj.EndAt {
					t.Errorf("%s/%d workers: job %d diverged: %v@[%d,%d] vs %v@[%d,%d]",
						policy, workers, id,
						sj.State, sj.StartAt, sj.EndAt, pj.State, pj.StartAt, pj.EndAt)
				}
			}
		}
	}
}

// TestParallelVsSequentialBothPaths holds the parallel pipeline to both
// of its references on the fixed mixed workload: at several worker
// counts it must reproduce the engine's own sequential decision timeline
// and the reference qmanager loop's. On the 2×16×4 wide system the
// sequential engine and the pipeline at 2 workers replay wideWorkload in
// lockstep with the reference.
func TestParallelVsSequentialBothPaths(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		seq := newSchedOpts(t, policy, 1, 4, 4, WithMatchWorkers(1))
		runWorkload(t, seq)
		ref := newReference(t, policy, 1, 4, 4, 0, DefaultMaxRetries)
		runWorkload(t, ref)
		for _, workers := range []int{2, 4} {
			par := newSchedOpts(t, policy, 1, 4, 4, WithMatchWorkers(workers))
			runWorkload(t, par)
			sameDecisions(t, fmt.Sprintf("%s/w%d vs w1", policy, workers), seq, par)
			sameDecisions(t, fmt.Sprintf("%s/w%d vs reference", policy, workers), ref, par)
		}
		for _, seed := range steeredSeeds {
			drive(t, fmt.Sprintf("%s/wide/seed%d", policy, seed), wideWorkload(seed, 60),
				newReference(t, policy, 2, 16, 4, 0, DefaultMaxRetries),
				newSchedOpts(t, policy, 2, 16, 4, WithMatchWorkers(1)),
				newSchedOpts(t, policy, 2, 16, 4, WithMatchWorkers(2)))
		}
	}
}

// TestParallelQueueDepth verifies the queue-depth bound and pending-order
// preservation survive the parallel path: jobs beyond the depth stay
// pending in their original order.
func TestParallelQueueDepth(t *testing.T) {
	g, err := grug.BuildGraph(grug.Small(1, 2, 4, 0, 0), 0, 1<<40,
		resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tr, Conservative, WithQueueDepth(2), WithMatchWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 fills the system; 2 reserves; 3 and 4 are beyond the depth.
	for id := int64(1); id <= 4; id++ {
		mustSubmit(t, s, id, nodeJob(2, 4, 100))
	}
	s.Schedule()
	if j, _ := s.Job(1); j.State != StateRunning {
		t.Fatalf("job 1: %v", j.State)
	}
	if j, _ := s.Job(2); j.State != StateReserved {
		t.Fatalf("job 2: %v", j.State)
	}
	for id := int64(3); id <= 4; id++ {
		if j, _ := s.Job(id); j.State != StatePending {
			t.Fatalf("job %d: %v", id, j.State)
		}
	}
	// Pending order must be preserved: 2 (reserved head), then 3, 4.
	want := []int64{2, 3, 4}
	if len(s.pending) != len(want) {
		t.Fatalf("pending len %d, want %d", len(s.pending), len(want))
	}
	for i, id := range want {
		if s.pending[i].ID != id {
			t.Fatalf("pending[%d] = %d, want %d", i, s.pending[i].ID, id)
		}
	}
}

// TestParallelFCFSBlocks verifies FCFS semantics under the parallel
// pipeline: nothing behind the first non-fitting job may start, even when
// a speculation for it succeeded.
func TestParallelFCFSBlocks(t *testing.T) {
	s := newSchedWorkers(t, FCFS, 1, 2, 4, 4)
	mustSubmit(t, s, 1, nodeJob(1, 4, 100)) // takes one of two nodes
	mustSubmit(t, s, 2, nodeJob(2, 4, 10))  // needs both -> blocks
	mustSubmit(t, s, 3, nodeJob(1, 4, 10))  // fits the free node, must NOT start
	s.Schedule()
	if j, _ := s.Job(1); j.State != StateRunning {
		t.Fatalf("job 1: %v", j.State)
	}
	if j, _ := s.Job(2); j.State != StatePending {
		t.Fatalf("job 2: %v", j.State)
	}
	if j, _ := s.Job(3); j.State != StatePending {
		t.Fatalf("job 3: %v", j.State)
	}
}
