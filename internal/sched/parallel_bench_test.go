package sched

import (
	"fmt"
	"sync"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// BenchmarkParallelMatch measures speculative match throughput against a
// pinned MVCC epoch at several worker counts. Every worker matches
// lock-free against the same immutable snapshot — no graph reader lock,
// no per-vertex claim atomics — so throughput should scale near-linearly
// with workers up to the core count. CI's parallel-scaling gate runs the
// w1/w8 pair and fails the build if 8 workers deliver less than 2x the
// single-worker throughput (ns/op at w8 must be under half of w1).
//
// b.N counts total matches across all workers, so ns/op is wall time per
// match: perfect scaling halves it per worker doubling.
func BenchmarkParallelMatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			g, err := grug.BuildGraph(grug.Small(4, 16, 16, 0, 0), 0, 1<<40,
				resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := traverser.New(g, match.First{})
			if err != nil {
				b.Fatal(err)
			}
			tr.EnableSteering()
			cjs, err := tr.Compile(nodeJob(2, 8, 100))
			if err != nil {
				b.Fatal(err)
			}
			ep := tr.PinEpoch()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				n := b.N / workers
				if w == 0 {
					n += b.N % workers
				}
				wg.Add(1)
				go func(w, n int) {
					defer wg.Done()
					base := int64(w) << 32
					for i := 0; i < n; i++ {
						if _, err := tr.MatchSpeculateCompiledEpoch(base+int64(i)+1, cjs, 0, ep); err != nil {
							b.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}(w, n)
			}
			wg.Wait()
		})
	}
}
