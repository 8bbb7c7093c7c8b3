package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"fluxion/internal/sched"
)

// verdict is what the output check found in one repetition.
type verdict struct {
	digest string // hash of every job's (id, state, start, end)
	// retryExhausted counts jobs evicted by node failures more often than
	// the scheduler's retry limit allows. Only the fault workload can
	// have any; they are the scheduler's documented answer to repeated
	// failures, so they are reported beside, not among, the failures.
	retryExhausted int
	failed         int // rejected submits + jobs that did not complete
	meanWaitS      float64
	utilPct        float64
}

// check validates one repetition's decisions against its inputs: every
// job is terminal, none starts before its submit, and at no instant do
// running jobs hold more nodes than the machine has up. It also derives
// the simulated-quality metrics from the job records, independently of
// sched.Metrics.
func check(w workload, in *input, res *replayResult) (verdict, error) {
	var v verdict
	if len(res.records) != len(in.jobs) {
		return v, fmt.Errorf("%d job records for %d trace jobs", len(res.records), len(in.jobs))
	}
	h := sha256.New()
	type edge struct{ at, delta int64 }
	edges := make([]edge, 0, 2*len(res.records)+2*len(in.faults))
	var waits, completed int64
	firstSubmit, lastStart := int64(1)<<62, int64(0)
	for _, r := range res.records {
		fmt.Fprintf(h, "%d %d %d %d\n", r.id, r.state, r.start, r.end)
		switch r.state {
		case sched.StateCompleted:
		case sched.StateFailed:
			if !w.faults {
				return v, fmt.Errorf("job %d failed on a workload without faults", r.id)
			}
			v.retryExhausted++
			continue
		default:
			v.failed++
			continue
		}
		if r.start < r.submit {
			return v, fmt.Errorf("job %d starts at %d before its submit at %d", r.id, r.start, r.submit)
		}
		if r.end != r.start+r.duration {
			return v, fmt.Errorf("job %d ran [%d,%d), not its %d s duration", r.id, r.start, r.end, r.duration)
		}
		edges = append(edges, edge{r.start, r.nodes}, edge{r.end, -r.nodes})
		completed++
		waits += r.start - r.submit
		firstSubmit, lastStart = min(firstSubmit, r.submit), max(lastStart, r.start)
	}
	v.failed += res.rejected
	// A down node is capacity nobody may hold: count it as held.
	for _, f := range in.faults {
		edges = append(edges, edge{f.Down, 1}, edge{f.Up, -1})
	}
	// Releases sort before claims at one instant, as the scheduler frees
	// completions and repairs before it plans.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].delta < edges[b].delta
	})
	held := int64(0)
	for _, e := range edges {
		if held += e.delta; held > quartzNodes {
			return v, fmt.Errorf("%d nodes held at t=%d on a %d-node machine", held, e.at, quartzNodes)
		}
	}
	if completed == 0 {
		return v, fmt.Errorf("no job completed")
	}
	// Utilization over the window in which the scheduler still had a
	// job to place, [first submit, last start). After the last start it
	// only watches jobs drain, and in a trace this short that tail is as
	// long as the longest job happens to be, not as good as the packing.
	windowEnd := max(lastStart, firstSubmit+1)
	nodeSeconds := int64(0)
	for _, r := range res.records {
		if r.state == sched.StateCompleted {
			nodeSeconds += r.nodes * max(min(r.end, windowEnd)-r.start, 0)
		}
	}
	v.digest = hex.EncodeToString(h.Sum(nil)[:8])
	v.meanWaitS = float64(waits) / float64(completed)
	v.utilPct = 100 * float64(nodeSeconds) / (quartzNodes * float64(windowEnd-firstSubmit))
	return v, nil
}
