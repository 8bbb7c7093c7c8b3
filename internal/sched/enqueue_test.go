package sched

import "testing"

// queueIDs snapshots the pending queue order.
func queueIDs(s *Scheduler) []int64 {
	out := make([]int64, len(s.pending))
	for i, j := range s.pending {
		out[i] = j.ID
	}
	return out
}

func wantQueue(t *testing.T, s *Scheduler, want ...int64) {
	t.Helper()
	got := queueIDs(s)
	if len(got) != len(want) {
		t.Fatalf("queue = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("queue = %v, want %v", got, want)
		}
	}
}

// TestEnqueueStableFIFOWithinPriority checks that enqueue keeps strict
// submission order among jobs of equal priority while higher priorities
// insert ahead of lower ones (and behind earlier equals).
func TestEnqueueStableFIFOWithinPriority(t *testing.T) {
	s := newSched(t, FCFS, 1, 1, 1)
	submit := func(id int64, prio int) {
		if _, err := s.SubmitPriority(id, nodeJob(1, 1, 10), prio); err != nil {
			t.Fatal(err)
		}
	}
	submit(1, 0)
	submit(2, 0)
	submit(3, 1)
	submit(4, 0)
	submit(5, 1)
	submit(6, 2)
	wantQueue(t, s, 6, 3, 5, 1, 2, 4)
}

// TestEnqueuePriorityWithQueueDepth checks that the queue-depth window
// applies to the priority-ordered queue: a late high-priority submission
// enters the planning window and a low-priority job beyond the depth
// bound is not even match-attempted.
func TestEnqueuePriorityWithQueueDepth(t *testing.T) {
	s := newSchedOpts(t, FCFS, 1, 1, 4, WithQueueDepth(1))
	mustSubmit(t, s, 1, nodeJob(1, 4, 50)) // fills the node
	if _, err := s.SubmitPriority(2, nodeJob(1, 4, 50), 0); err != nil {
		t.Fatal(err)
	}
	s.Schedule()
	if _, err := s.SubmitPriority(3, nodeJob(1, 4, 50), 5); err != nil {
		t.Fatal(err)
	}
	wantQueue(t, s, 3, 2)
	before := s.Stats().MatchAttempts
	s.Schedule()
	// Depth 1: only job 3 (the priority head) is attempted; job 2 sits
	// beyond the window without a match.
	if got := s.Stats().MatchAttempts - before; got != 1 {
		t.Fatalf("depth-bounded cycle did %d match attempts, want 1", got)
	}
	s.Run(0)
	j2, _ := s.Job(2)
	j3, _ := s.Job(3)
	if j3.StartAt >= j2.StartAt {
		t.Fatalf("priority head started at %d, behind depth-excluded job at %d",
			j3.StartAt, j2.StartAt)
	}
}

// TestEnqueueRequeueAfterFailurePosition checks that a job evicted by a
// node failure re-enters the queue behind already-pending jobs of equal
// priority (it keeps its priority but loses its original position).
func TestEnqueueRequeueAfterFailurePosition(t *testing.T) {
	s := newSched(t, FCFS, 1, 2, 4)
	j1 := mustSubmit(t, s, 1, nodeJob(1, 4, 100))
	mustSubmit(t, s, 2, nodeJob(1, 4, 100))
	s.Schedule() // both nodes busy
	mustSubmit(t, s, 3, nodeJob(1, 4, 100))
	mustSubmit(t, s, 4, nodeJob(1, 4, 100))
	wantQueue(t, s, 3, 4)
	if _, err := s.NodeDown(j1.Alloc.Nodes()[0].Path()); err != nil {
		t.Fatal(err)
	}
	// Job 1 was evicted and requeued: equal priority, so behind 3 and 4.
	wantQueue(t, s, 3, 4, 1)
	if j1.Retries != 1 || j1.State != StatePending {
		t.Fatalf("evicted job: retries=%d state=%v", j1.Retries, j1.State)
	}
}
