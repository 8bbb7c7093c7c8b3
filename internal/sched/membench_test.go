package sched

import (
	"runtime"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// benchSettleHeap returns the live heap after forcing collection twice.
func benchSettleHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkSchedMemory measures the resting memory cost of one pending
// job in a deep conservative backlog: heap growth across submitting and
// planning 4096 single-node jobs on an 8-node system (8 run, the rest
// hold standing reservations), divided by the queue depth. The bytes/job
// metric is gated raw by benchdiff, like allocs/op, so a regression in
// the job, reservation, or wakeup-index footprint fails CI even when
// cycle latency stays flat.
func BenchmarkSchedMemory(b *testing.B) {
	const jobs = 4096
	b.Run("pending4096", func(b *testing.B) {
		var bytesPerJob float64
		for i := 0; i < b.N; i++ {
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
			heap0 := benchSettleHeap()
			spec := nodeJob(1, 4, 100)
			for j := 1; j <= jobs; j++ {
				if _, err := s.Submit(int64(j), spec); err != nil {
					b.Fatal(err)
				}
			}
			s.Schedule()
			heap1 := benchSettleHeap()
			bytesPerJob = float64(heap1-heap0) / float64(jobs)
			runtime.KeepAlive(s)
		}
		b.ReportMetric(bytesPerJob, "bytes/job")
	})
}
