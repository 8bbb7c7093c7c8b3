package sched

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fluxion/internal/resgraph"
)

// TestOneWorkerReplayBuildsNoEpochs replays a few hundred jobs (with a
// node failure and repair) through the default one-worker scheduler. No
// code on that path reads an epoch, so the graph must end with the one
// build Finalize did — while publications kept advancing the version and
// the delta sink saw exactly the stream the eager epoch layer delivered
// (digests recorded at commit 342ff54, before the publish/build split).
func TestOneWorkerReplayBuildsNoEpochs(t *testing.T) {
	golden := map[QueuePolicy]struct {
		deltas  int
		digest  uint64
		version uint64
	}{
		FCFS:         {2803, 0xd8d0dc8c44363dc9, 602},
		EASY:         {3221, 0x56cc98804bc77f64, 606},
		Conservative: {3235, 0x24c215464509dc72, 604},
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
		if b := g.EpochBuilds(); b != 1 {
			t.Errorf("%s: %d epoch builds over %d publications, want only the bootstrap", policy, b, g.EpochVersion()-1)
		}
	}
}
