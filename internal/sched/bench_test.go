package sched

import (
	"fmt"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// BenchmarkSchedCycle measures the steady-state cost of one scheduling
// cycle over a deep conservative queue: 8 nodes, N single-node jobs, all
// but 8 blocked behind standing reservations. The qmanager loop would
// cancel and re-plan all N reservations every cycle (O(pending × match));
// the engine carries them over and skips the blocked tail on their
// blocking signatures (O(woken × match), zero matches on an idle cycle).
func BenchmarkSchedCycle(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("incr-%d", n), func(b *testing.B) {
			g, err := grug.BuildGraph(grug.Small(1, 8, 4, 0, 0), 0, 1<<40,
				resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := traverser.New(g, match.First{})
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(tr, Conservative)
			if err != nil {
				b.Fatal(err)
			}
			spec := nodeJob(1, 4, 100)
			for i := 1; i <= n; i++ {
				if _, err := s.Submit(int64(i), spec); err != nil {
					b.Fatal(err)
				}
			}
			s.Schedule() // initial plan: 8 running, n-8 reserved
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule()
			}
		})
	}
}
