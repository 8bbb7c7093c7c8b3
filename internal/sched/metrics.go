package sched

import (
	"fmt"
	"strings"
	"time"
)

// Metrics summarizes a scheduler run.
type Metrics struct {
	Completed     int
	Unsatisfiable int
	// Makespan is the simulated time between the earliest submit and
	// the last completion.
	Makespan int64
	// MeanWait is the mean simulated queue wait (start - submit) over
	// completed jobs.
	MeanWait float64
	// MaxWait is the maximum simulated wait.
	MaxWait int64
	// TotalMatch is the accumulated wall-clock matcher time.
	TotalMatch time.Duration
	// NodeSecondsUsed / NodeSecondsTotal approximate utilization for
	// whole-node workloads: granted node-seconds over capacity
	// node-seconds across the makespan.
	NodeSecondsUsed  int64
	NodeSecondsTotal int64
	// Requeues counts failure-driven evictions of running jobs that sent
	// the job back to the pending queue (or to StateFailed).
	Requeues int
	// LostCoreSeconds is the core-time evicted jobs had already consumed
	// and must redo — the direct cost of resource failures.
	LostCoreSeconds int64
	// Failed counts jobs that exhausted their failure-requeue budget.
	Failed int
	// Quarantined counts jobs currently in StateQuarantined (poisoned
	// work the defense layer set aside; see defense.go).
	Quarantined int
}

// Utilization returns NodeSecondsUsed / NodeSecondsTotal (0 when no
// capacity elapsed).
func (m Metrics) Utilization() float64 {
	if m.NodeSecondsTotal == 0 {
		return 0
	}
	return float64(m.NodeSecondsUsed) / float64(m.NodeSecondsTotal)
}

// String renders a one-line summary.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%d makespan=%ds meanWait=%.1fs maxWait=%ds match=%v",
		m.Completed, m.Makespan, m.MeanWait, m.MaxWait, m.TotalMatch.Round(time.Millisecond))
	if m.NodeSecondsTotal > 0 {
		fmt.Fprintf(&b, " util=%.1f%%", 100*m.Utilization())
	}
	if m.Unsatisfiable > 0 {
		fmt.Fprintf(&b, " unsatisfiable=%d", m.Unsatisfiable)
	}
	if m.Requeues > 0 || m.LostCoreSeconds > 0 {
		fmt.Fprintf(&b, " requeues=%d lostCoreSec=%d", m.Requeues, m.LostCoreSeconds)
	}
	if m.Failed > 0 {
		fmt.Fprintf(&b, " failed=%d", m.Failed)
	}
	if m.Quarantined > 0 {
		fmt.Fprintf(&b, " quarantined=%d", m.Quarantined)
	}
	return b.String()
}

// Metrics computes run statistics from the scheduler's current state.
// Call it after Run (or after draining manually).
func (s *Scheduler) Metrics() Metrics {
	nodeCapacity := int64(0)
	if root := s.tr.Graph().Root("containment"); root != nil {
		nodeCapacity = root.Aggregates()["node"]
	}
	m := FoldMetrics(func(fn func(*Job)) {
		for _, j := range s.jobs {
			fn(j)
		}
	}, nodeCapacity)
	m.Requeues = s.requeues
	m.LostCoreSeconds = s.lostCoreSec
	return m
}

// FoldMetrics computes the job-derived run statistics over the jobs each
// visits, on a system of nodeCapacity nodes: makespan runs from the
// earliest submit to the last completion among completed jobs. Requeues
// and LostCoreSeconds are not job state; the caller fills them in. The
// sharded router folds its merged job table through the same function.
func FoldMetrics(each func(func(*Job)), nodeCapacity int64) Metrics {
	var m Metrics
	var firstSubmit, lastEnd int64 = 1 << 62, 0
	var waits int64
	each(func(j *Job) {
		m.TotalMatch += j.MatchDuration
		switch j.State {
		case StateFailed:
			m.Failed++
			return
		case StateQuarantined:
			m.Quarantined++
			return
		case StateUnsatisfiable:
			m.Unsatisfiable++
			return
		case StateCompleted:
			m.Completed++
		default:
			return
		}
		if j.Submit < firstSubmit {
			firstSubmit = j.Submit
		}
		if j.EndAt > lastEnd {
			lastEnd = j.EndAt
		}
		wait := j.StartAt - j.Submit
		waits += wait
		if wait > m.MaxWait {
			m.MaxWait = wait
		}
		m.NodeSecondsUsed += int64(j.NodeCount) * (j.EndAt - j.StartAt)
	})
	if m.Completed > 0 {
		m.Makespan = lastEnd - firstSubmit
		m.MeanWait = float64(waits) / float64(m.Completed)
		m.NodeSecondsTotal = nodeCapacity * m.Makespan
	}
	return m
}
