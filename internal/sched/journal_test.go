package sched

import (
	"bytes"
	"fmt"
	"testing"

	"fluxion/internal/traverser"
)

// journalTrace captures a live run's record stream plus a reference
// checkpoint at every commit boundary, for replay-parity assertions.
type journalTrace struct {
	recs    []Rec
	commits []int      // record count at each commit (inclusive)
	refs    [][]byte   // scheduler checkpoint at each commit
	s       *Scheduler // the live scheduler being traced
	t       *testing.T
}

func (tr *journalTrace) sink(r *Rec) {
	c := *r
	if r.Grants != nil {
		c.Grants = append([]traverser.Grant(nil), r.Grants...)
	}
	tr.recs = append(tr.recs, c)
	if r.Kind == RecCommit {
		cp, err := tr.s.Checkpoint()
		if err != nil {
			tr.t.Fatalf("checkpoint at commit: %v", err)
		}
		tr.commits = append(tr.commits, len(tr.recs))
		tr.refs = append(tr.refs, cp)
	}
}

// journalSched builds the fixed 2-node/4-core fixture every journal
// test drives (helper shared with incremental_test.go).
func journalSched(t testing.TB, policy QueuePolicy, opts ...SchedOption) *Scheduler {
	t.Helper()
	return newSchedOpts(t, policy, 1, 2, 4, opts...)
}

// driveJournalWorkload exercises every record kind: satisfiable and
// unsatisfiable submits with priorities, scheduling cycles (starts,
// reservations, converts, demotions), a node failure evicting a running
// job and dropping a reservation, the repair, and clock movement.
func driveJournalWorkload(t testing.TB, s *Scheduler) {
	t.Helper()
	s.Atomic(func() {
		mustSubmit(t, s, 1, nodeJob(2, 4, 100))
		mustSubmit(t, s, 2, nodeJob(1, 4, 50))
		mustSubmit(t, s, 3, nodeJob(1, 4, 100))
		mustSubmit(t, s, 4, nodeJob(100, 4, 10)) // unsatisfiable
		if _, err := s.SubmitPriority(5, nodeJob(1, 4, 20), 7); err != nil {
			t.Fatal(err)
		}
		s.Schedule()
	})
	if err := s.ScheduleNodeDown(30, "/cluster0/rack0/node0"); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleNodeUp(60, "/cluster0/rack0/node0"); err != nil {
		t.Fatal(err)
	}
	s.Atomic(func() {
		if err := s.AdvanceTo(10); err != nil {
			t.Fatal(err)
		}
		mustSubmit(t, s, 6, nodeJob(1, 4, 40))
		s.Schedule()
	})
	for s.Step() {
	}
}

// TestJournalReplayParity drives a failure-laden workload with the
// journal attached and replays the record stream into a fresh scheduler,
// asserting byte-identical checkpoints at EVERY commit boundary — the
// journal leg of the WAL crash-recovery invariant.
func TestJournalReplayParity(t *testing.T) {
	cases := []struct {
		name   string
		policy QueuePolicy
		opts   []SchedOption
	}{
		{"fcfs", FCFS, nil},
		{"easy", EASY, nil},
		{"conservative", Conservative, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := journalSched(t, tc.policy, tc.opts...)
			trace := &journalTrace{s: live, t: t}
			live.SetJournal(trace.sink)
			driveJournalWorkload(t, live)
			if len(trace.commits) == 0 {
				t.Fatal("no commits recorded")
			}

			for bi, n := range trace.commits {
				replay := journalSched(t, tc.policy, tc.opts...)
				for i := 0; i < n; i++ {
					if err := replay.Apply(&trace.recs[i]); err != nil {
						t.Fatalf("boundary %d: apply record %d (%s): %v",
							bi, i, trace.recs[i].Kind, err)
					}
				}
				got, err := replay.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, trace.refs[bi]) {
					t.Fatalf("boundary %d (after %d records): checkpoint mismatch\nlive:\n%s\nreplay:\n%s",
						bi, n, trace.refs[bi], got)
				}
			}

			// At the terminal boundary, the traverser sides agree too.
			replay := journalSched(t, tc.policy, tc.opts...)
			for i := range trace.recs {
				if err := replay.Apply(&trace.recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			liveJobs, replayJobs := live.tr.Jobs(), replay.tr.Jobs()
			if fmt.Sprint(liveJobs) != fmt.Sprint(replayJobs) {
				t.Fatalf("traverser jobs: live %v replay %v", liveJobs, replayJobs)
			}
			for _, id := range liveJobs {
				la, _ := live.tr.Info(id)
				ra, _ := replay.tr.Info(id)
				if la.At != ra.At || la.Duration != ra.Duration || la.Reserved != ra.Reserved ||
					fmt.Sprint(la.Grants()) != fmt.Sprint(ra.Grants()) {
					t.Fatalf("job %d allocation diverged: live %+v replay %+v", id, la, ra)
				}
			}
		})
	}
}

// TestJournalReplayThenLive replays a journal prefix and then continues
// scheduling live: post-recovery decisions must match the uncrashed run.
func TestJournalReplayThenLive(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		t.Run(string(policy), func(t *testing.T) {
			live := journalSched(t, policy)
			trace := &journalTrace{s: live, t: t}
			live.SetJournal(trace.sink)
			driveJournalWorkload(t, live)
			want, err := live.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			// Cut at the commit closest to halfway through the stream.
			cut := trace.commits[len(trace.commits)/2]
			replay := journalSched(t, policy)
			for i := 0; i < cut; i++ {
				if err := replay.Apply(&trace.recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			replay.ForceFullWake()
			for replay.Step() {
			}
			got, err := replay.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("post-replay live run diverged\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestJournalCommitBoundaries asserts the bracketing discipline: every
// stream ends each command with a commit, Atomic widens units, and no
// records leak outside brackets.
func TestJournalCommitBoundaries(t *testing.T) {
	s := journalSched(t, Conservative)
	var recs []Rec
	s.SetJournal(func(r *Rec) { recs = append(recs, *r) })

	s.Atomic(func() {
		mustSubmit(t, s, 1, nodeJob(1, 4, 10))
		mustSubmit(t, s, 2, nodeJob(1, 4, 10))
		s.Schedule()
	})
	commits := 0
	for _, r := range recs {
		if r.Kind == RecCommit {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("atomic batch emitted %d commits, want 1", commits)
	}
	if recs[len(recs)-1].Kind != RecCommit {
		t.Fatalf("stream does not end with commit: %v", recs[len(recs)-1].Kind)
	}

	// A lone submit is its own unit.
	n := len(recs)
	mustSubmit(t, s, 3, nodeJob(1, 4, 10))
	tail := recs[n:]
	if len(tail) != 2 || tail[0].Kind != RecSubmit || tail[1].Kind != RecCommit {
		t.Fatalf("lone submit stream = %v", tail)
	}
}

// TestEventHeapResume is the pending-event round-trip: node down/up
// events scheduled for the future must survive checkpoint→resume and
// fire in the same deterministic order (time, then completions before
// repairs before failures).
func TestEventHeapResume(t *testing.T) {
	s := journalSched(t, Conservative)
	// Same-instant pair at t=60 checks intra-instant ordering (up
	// before down), around events at 50 and 70.
	for _, ev := range []struct {
		at   int64
		path string
		down bool
	}{
		{50, "/cluster0/rack0/node0", true},
		{60, "/cluster0/rack0/node1", true},
		{60, "/cluster0/rack0/node0", false},
		{70, "/cluster0/rack0/node1", false},
	} {
		var err error
		if ev.down {
			err = s.ScheduleNodeDown(ev.at, ev.path)
		} else {
			err = s.ScheduleNodeUp(ev.at, ev.path)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	r := journalSched(t, Conservative)
	resumed, err := Resume(r.tr, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed checkpoint is byte-identical: the heap round-tripped.
	data2, err := resumed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("checkpoint not stable across resume\nbefore:\n%s\nafter:\n%s", data, data2)
	}

	type firing struct {
		at   int64
		path string
		down bool
	}
	var fired []firing
	resumed.SetResourceEventHook(func(at int64, path string, down bool) {
		fired = append(fired, firing{at, path, down})
	})
	for resumed.Step() {
	}
	want := []firing{
		{50, "/cluster0/rack0/node0", true},
		{60, "/cluster0/rack0/node0", false}, // up sorts before down at the same instant
		{60, "/cluster0/rack0/node1", true},
		{70, "/cluster0/rack0/node1", false},
	}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("events fired out of order after resume:\n got %v\nwant %v", fired, want)
	}
	if resumed.Now() != 70 {
		t.Fatalf("clock after drain = %d, want 70", resumed.Now())
	}
}
