package sched

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fluxion/internal/resgraph"
)

// TestOneWorkerReplayBuildsNoEpochs replays a few hundred jobs (with a
// node failure and repair) through the scheduler and pins the publish
// boundary: the version publications advanced to and the exact delta
// stream the sink saw (counts recorded at commit 342ff54, when epochs were
// still materialised on every publication; digests re-recorded when
// first-fit steering was removed, which moved placements but not the
// counts).
// Versions count publications that had something to publish; a cycle
// whose only work was failed match attempts has nothing, since the match
// kernel writes no planner.
func TestOneWorkerReplayBuildsNoEpochs(t *testing.T) {
	golden := map[QueuePolicy]struct {
		deltas  int
		digest  uint64
		version uint64
	}{
		FCFS:         {2803, 0xe757586a00ef22c7, 602},
		EASY:         {3221, 0x30b40f63b58c4452, 605},
		Conservative: {3235, 0xec72b96083923a28, 604},
	}
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		s := newSchedOpts(t, policy, 2, 8, 4)
		g := s.tr.Graph()
		h, n := fnv.New64a(), 0
		g.SetDeltaSink(func(d resgraph.Delta) {
			fmt.Fprintln(h, d.Kind, d.TreeIn, d.TreeOut, d.TypeID, d.Amount, d.From, d.To)
			n++
			s.wakeup.publish(d)
		})
		node := g.ByType("node")[3].Path()
		if err := s.ScheduleNodeDown(900, node); err != nil {
			t.Fatal(err)
		}
		if err := s.ScheduleNodeUp(2500, node); err != nil {
			t.Fatal(err)
		}
		drive(t, string(policy), randomWorkload(11, 300), s)
		for id, j := range s.Jobs() {
			if j.State != StateCompleted {
				t.Fatalf("%s: job %d ended %s", policy, id, j.State)
			}
		}
		want := golden[policy]
		if n != want.deltas || h.Sum64() != want.digest || g.EpochVersion() != want.version {
			t.Errorf("%s: %d deltas, digest %#x, version %d; want %d, %#x, %d",
				policy, n, h.Sum64(), g.EpochVersion(), want.deltas, want.digest, want.version)
		}
	}
}
