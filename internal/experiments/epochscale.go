package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EpochScaleResult is one row of the E10 epoch-snapshot scaling sweep: the
// aggregate rate at which W workers match read-only against a single
// pinned MVCC epoch. Unlike the parmatch pipeline (which commits and so
// serializes on the writer lock), this path takes no graph lock and
// touches no shared counters, so throughput should scale near-linearly
// with cores.
type EpochScaleResult struct {
	Workers    int
	Matches    int           // total speculations across workers
	Total      time.Duration // wall time for the whole sweep row
	PerMatch   time.Duration // wall time per match (aggregate)
	Throughput float64       // matches per second, aggregate
	Speedup    float64       // throughput relative to the 1-worker row
}

// RunEpochScale sweeps worker counts over lock-free epoch matching: the
// half-loaded Fig. 6a system is pinned once, then each worker repeatedly
// speculates a compiled match against that immutable snapshot and drops
// it uncommitted. Every worker sees the same graph state for the whole row, so the
// sweep isolates read-path scalability from writer contention.
func RunEpochScale(racks int64, workers []int, ops int) ([]EpochScaleResult, error) {
	tr, nextID, err := halfLoadLOD(racks)
	if err != nil {
		return nil, err
	}
	cjs, err := tr.Compile(LODJobspec())
	if err != nil {
		return nil, err
	}
	ep := tr.PinEpoch()
	var out []EpochScaleResult
	for _, w := range workers {
		if w < 1 {
			return nil, fmt.Errorf("epochscale: worker count %d", w)
		}
		var ids atomic.Int64
		ids.Store(nextID)
		var firstErr atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < w; i++ {
			n := ops / w
			if i == 0 {
				n += ops % w
			}
			wg.Add(1)
			go func(worker, n int) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					if _, err := tr.MatchSpeculateCompiledEpoch(ids.Add(1), cjs, 0, ep); err != nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("worker %d: %w", worker, err))
						return
					}
				}
			}(i, n)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return nil, fmt.Errorf("epochscale %d workers: %w", w, err)
		}
		total := time.Since(start)
		r := EpochScaleResult{Workers: w, Matches: ops, Total: total}
		if ops > 0 && total > 0 {
			r.PerMatch = total / time.Duration(ops)
			r.Throughput = float64(ops) / total.Seconds()
		}
		if len(out) > 0 && out[0].Throughput > 0 {
			r.Speedup = r.Throughput / out[0].Throughput
		} else {
			r.Speedup = 1
		}
		out = append(out, r)
	}
	return out, nil
}

// PrintEpochScale renders the worker sweep as a table.
func PrintEpochScale(w io.Writer, results []EpochScaleResult, racks int64) {
	fmt.Fprintf(w, "Epoch-snapshot scaling — %d-node system at half load, lock-free speculation against one pinned epoch\n", racks*18)
	fmt.Fprintf(w, "%-8s %9s %12s %14s %8s\n", "workers", "matches", "match/s", "per-match", "speedup")
	for _, r := range results {
		fmt.Fprintf(w, "%-8d %9d %12.0f %14v %7.2fx\n",
			r.Workers, r.Matches, r.Throughput, r.PerMatch.Round(time.Microsecond), r.Speedup)
	}
}
