package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"fluxion/internal/grug"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// ParMatchResult is one row of the parallel-match throughput sweep: the
// aggregate rate at which W workers push jobs through the speculate ->
// commit -> cancel pipeline on the Fig. 6a half-loaded system.
type ParMatchResult struct {
	Workers    int
	Ops        int // completed speculate+commit+cancel cycles
	Conflicts  int // commits that lost the race and were retried
	Total      time.Duration
	PerMatch   time.Duration
	Throughput float64 // matches per second, aggregate
	Speedup    float64 // throughput relative to the 1-worker row
}

// halfLoadLOD builds the High-LOD pruned system at the given rack scale
// and fills half its capacity with LODJobspec allocations, reproducing the
// steady mid-load state the Fig. 6a study matches against. It returns the
// traverser and the first free job ID.
func halfLoadLOD(racks int64) (*traverser.Traverser, int64, error) {
	recipe := grug.LODPresetsScaled(racks)[0] // High
	g, err := grug.BuildGraph(recipe, 0, 1<<31, resgraph.PruneSpec{resgraph.ALL: {"core"}})
	if err != nil {
		return nil, 0, err
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		return nil, 0, err
	}
	js := LODJobspec()
	// Each node hosts four 10-core jobs; fill half the system.
	fill := racks * 18 * 4 / 2
	id := int64(1)
	for ; id <= fill; id++ {
		if _, err := tr.MatchAllocate(id, js, 0); err != nil {
			return nil, 0, fmt.Errorf("half-load fill at job %d: %w", id, err)
		}
	}
	return tr, id, nil
}

// RunParMatch sweeps worker counts over the parallel match pipeline: each
// worker repeatedly speculates a match against the half-loaded system,
// commits it, and cancels it again, so the load level stays constant while
// `ops` total cycles complete. Conflicted commits are retried and counted.
func RunParMatch(racks int64, workers []int, ops int) ([]ParMatchResult, error) {
	tr, nextID, err := halfLoadLOD(racks)
	if err != nil {
		return nil, err
	}
	js := LODJobspec()
	var out []ParMatchResult
	for _, w := range workers {
		if w < 1 {
			return nil, fmt.Errorf("parmatch: worker count %d", w)
		}
		var ids atomic.Int64
		ids.Store(nextID)
		var done atomic.Int64
		var conflicts atomic.Int64
		var firstErr atomic.Value
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for done.Add(1) <= int64(ops) {
					id := ids.Add(1)
					for {
						cjs, err := tr.Compile(js)
						if err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
						alloc, err := tr.MatchSpeculateCompiledEpoch(id, cjs, 0, tr.PinEpoch())
						if err != nil {
							// The pinned epoch caught other workers'
							// jobs between commit and cancel; the
							// capacity exists, retry on a fresh pin.
							if errors.Is(err, traverser.ErrNoMatch) {
								continue
							}
							firstErr.CompareAndSwap(nil, err)
							return
						}
						if err := tr.Commit(alloc); err != nil {
							if errors.Is(err, traverser.ErrConflict) {
								conflicts.Add(1)
								continue
							}
							firstErr.CompareAndSwap(nil, err)
							return
						}
						break
					}
					if err := tr.Cancel(id); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return nil, fmt.Errorf("parmatch %d workers: %w", w, err)
		}
		total := time.Since(start)
		r := ParMatchResult{
			Workers:   w,
			Ops:       ops,
			Conflicts: int(conflicts.Load()),
			Total:     total,
		}
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

// PrintParMatch renders the worker sweep as a table.
func PrintParMatch(w io.Writer, results []ParMatchResult, racks int64) {
	fmt.Fprintf(w, "Parallel match pipeline — %d-node system at half load, speculate+commit+cancel cycles\n", racks*18)
	fmt.Fprintf(w, "%-8s %8s %10s %12s %14s %8s\n", "workers", "ops", "conflicts", "match/s", "per-match", "speedup")
	for _, r := range results {
		fmt.Fprintf(w, "%-8d %8d %10d %12.0f %14v %7.2fx\n",
			r.Workers, r.Ops, r.Conflicts, r.Throughput, r.PerMatch.Round(time.Microsecond), r.Speedup)
	}
}
