package sched

import (
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"fluxion/internal/jobspec"
	"fluxion/internal/traverser"
)

// ErrCheckpoint is wrapped by all scheduler checkpoint decode/resume
// errors.
var ErrCheckpoint = errors.New("sched: bad checkpoint")

// Checkpoint is the serializable scheduler state: clock, queue order, job
// lifecycle, and the pending resource-event timeline. Allocations are NOT
// part of it — they live in the resource graph and travel through the
// fluxion-level checkpoint; Resume reconnects them from the restored
// traverser. Completion events are likewise rebuilt from running jobs'
// end times.
type Checkpoint struct {
	Version    int               `json:"version"`
	Now        int64             `json:"now"`
	Cycles     int               `json:"cycles"`
	Policy     QueuePolicy       `json:"policy"`
	QueueDepth int               `json:"queue_depth,omitempty"`
	MaxRetries int               `json:"max_retries"`
	Requeues   int               `json:"requeues,omitempty"`
	LostCore   int64             `json:"lost_core_seconds,omitempty"`
	Jobs       []jobCheckpoint   `json:"jobs"`
	Pending    []int64           `json:"pending"` // queue order
	Events     []eventCheckpoint `json:"events,omitempty"`
}

type jobCheckpoint struct {
	ID       int64  `json:"id"`
	Submit   int64  `json:"submit"`
	Priority int    `json:"priority,omitempty"`
	State    string `json:"state"`
	StartAt  int64  `json:"start_at,omitempty"`
	EndAt    int64  `json:"end_at,omitempty"`
	Nodes    int    `json:"nodes,omitempty"` // Job.NodeCount
	Retries  int    `json:"retries,omitempty"`
	// Quarantine reason and message, present only for quarantined jobs.
	Quarantine    string `json:"quarantine,omitempty"`
	QuarantineMsg string `json:"quarantine_msg,omitempty"`
}

type eventCheckpoint struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`
	Path string `json:"path"`
}

// Checkpoint captures the scheduler's state for crash recovery. Pair it
// with the resource-level checkpoint taken at the same instant.
func (s *Scheduler) Checkpoint() ([]byte, error) {
	cp := Checkpoint{
		Version:    1,
		Now:        s.now,
		Cycles:     s.Cycles,
		Policy:     s.policy,
		QueueDepth: s.queueDepth,
		MaxRetries: s.maxRetries,
		Requeues:   s.requeues,
		LostCore:   s.lostCoreSec,
	}
	ids := make([]int64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		j := s.jobs[id]
		jc := jobCheckpoint{
			ID: j.ID, Submit: j.Submit, Priority: j.Priority,
			State: j.State.String(), StartAt: j.StartAt, EndAt: j.EndAt,
			Nodes: j.NodeCount, Retries: j.Retries,
		}
		if j.State == StateQuarantined {
			jc.Quarantine = j.Quarantine.String()
			jc.QuarantineMsg = j.QuarantineMsg
		}
		cp.Jobs = append(cp.Jobs, jc)
	}
	for _, j := range s.pending {
		cp.Pending = append(cp.Pending, j.ID)
	}
	// Persist the resource-event timeline in deterministic order;
	// completions are reconstructed from running jobs at Resume.
	evs := append(eventHeap(nil), s.events...)
	for evs.Len() > 0 {
		e := heap.Pop(&evs).(event)
		if e.kind == evComplete {
			continue
		}
		cp.Events = append(cp.Events, eventCheckpoint{At: e.at, Kind: e.kind.String(), Path: e.path})
	}
	return json.MarshalIndent(cp, "", "  ")
}

// Resume rebuilds a scheduler from a Checkpoint over a traverser that has
// already been restored (its allocations reinstalled, e.g. by
// fluxion.Restore). specs supplies the jobspec for every job that may
// still be scheduled (pending, reserved, or running); completed, failed,
// and unsatisfiable jobs resume without one. opts (e.g. WithDefense,
// WithMaxRetries) are applied on top of the checkpointed configuration.
func Resume(tr *traverser.Traverser, data []byte, specs map[int64]*jobspec.Jobspec, opts ...SchedOption) (*Scheduler, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	if cp.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpoint, cp.Version)
	}
	allOpts := append([]SchedOption{WithQueueDepth(cp.QueueDepth), WithMaxRetries(cp.MaxRetries)}, opts...)
	s, err := New(tr, cp.Policy, allOpts...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	// Blocking signatures and wakeup deltas are transient and were lost
	// with the process: force the first post-resume cycle to re-plan
	// everything, which is always decision-safe.
	s.wakeup.forceFullWake()
	s.setNow(cp.Now)
	s.Cycles = cp.Cycles
	s.requeues = cp.Requeues
	s.lostCoreSec = cp.LostCore
	for _, jc := range cp.Jobs {
		state, err := parseJobState(jc.State)
		if err != nil {
			return nil, fmt.Errorf("%w: job %d: %v", ErrCheckpoint, jc.ID, err)
		}
		job := &Job{
			ID: jc.ID, Submit: jc.Submit, Priority: jc.Priority,
			State: state, StartAt: jc.StartAt, EndAt: jc.EndAt,
			NodeCount: jc.Nodes, Retries: jc.Retries, Spec: specs[jc.ID],
		}
		switch state {
		case StatePending, StateReserved, StateRunning, StateQuarantined:
			if job.Spec == nil {
				return nil, fmt.Errorf("%w: job %d (%s) has no jobspec", ErrCheckpoint, jc.ID, state)
			}
		}
		if state == StateQuarantined {
			// Quarantine metadata must round-trip so the release API
			// and inspection survive a restart. An absent reason (a
			// hand-edited document) decodes as manual.
			if jc.Quarantine == "" {
				job.Quarantine = QuarantineManual
			} else {
				reason, err := parseQuarantineReason(jc.Quarantine)
				if err != nil {
					return nil, fmt.Errorf("%w: job %d: %v", ErrCheckpoint, jc.ID, err)
				}
				job.Quarantine = reason
			}
			job.QuarantineMsg = jc.QuarantineMsg
		}
		switch state {
		case StateReserved, StateRunning:
			alloc, ok := tr.Info(jc.ID)
			if !ok {
				return nil, fmt.Errorf("%w: job %d (%s) has no restored allocation", ErrCheckpoint, jc.ID, state)
			}
			job.Alloc = alloc
			if state == StateReserved {
				s.reserved[jc.ID] = job
			} else {
				job.NodeCount = s.countNodes(alloc)
				heap.Push(&s.events, event{at: job.EndAt, kind: evComplete, jobID: job.ID})
			}
		}
		s.jobs[jc.ID] = job
	}
	seen := make(map[int64]bool, len(cp.Pending))
	for _, id := range cp.Pending {
		job, ok := s.jobs[id]
		if !ok {
			return nil, fmt.Errorf("%w: pending queue references unknown job %d", ErrCheckpoint, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: pending queue lists job %d twice", ErrCheckpoint, id)
		}
		seen[id] = true
		// Only schedulable jobs may sit in the queue: an adversarial or
		// corrupted checkpoint must not resurrect quarantined (or
		// terminal) jobs into pending.
		switch job.State {
		case StatePending, StateReserved:
		default:
			return nil, fmt.Errorf("%w: pending queue references job %d in state %s",
				ErrCheckpoint, id, job.State)
		}
		s.pending = append(s.pending, job)
	}
	for _, ec := range cp.Events {
		var kind eventKind
		switch ec.Kind {
		case evNodeDown.String():
			kind = evNodeDown
		case evNodeUp.String():
			kind = evNodeUp
		default:
			return nil, fmt.Errorf("%w: unknown event kind %q", ErrCheckpoint, ec.Kind)
		}
		heap.Push(&s.events, event{at: ec.At, kind: kind, path: ec.Path})
	}
	return s, nil
}
