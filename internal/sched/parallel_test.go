package sched

import (
	"fmt"
	"testing"
)

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

// TestParallelVsSequentialBothPaths holds the engine to the reference
// qmanager loop on the fixed mixed workload, and on the 2×16×4 wide
// system replays wideWorkload in lockstep with the reference.
func TestParallelVsSequentialBothPaths(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		eng := newSchedOpts(t, policy, 1, 4, 4)
		runWorkload(t, eng)
		ref := newReference(t, policy, 1, 4, 4, 0, DefaultMaxRetries)
		runWorkload(t, ref)
		sameDecisions(t, fmt.Sprintf("%s vs reference", policy), ref, eng)
		for _, seed := range steeredSeeds {
			drive(t, fmt.Sprintf("%s/wide/seed%d", policy, seed), wideWorkload(seed, 60),
				newReference(t, policy, 2, 16, 4, 0, DefaultMaxRetries),
				newSchedOpts(t, policy, 2, 16, 4))
		}
	}
}

// TestParallelQueueDepth verifies the queue-depth bound and pending-order
// preservation: jobs beyond the depth stay pending in their original
// order.
func TestParallelQueueDepth(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4, WithQueueDepth(2))
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

// TestParallelFCFSBlocks verifies FCFS semantics: nothing behind the
// first non-fitting job may start, even when it would fit.
func TestParallelFCFSBlocks(t *testing.T) {
	s := newSchedOpts(t, FCFS, 1, 2, 4)
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
