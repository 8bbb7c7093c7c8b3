package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"fluxion"
	"fluxion/internal/durable"
	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/shard"
	"fluxion/internal/trace"
)

// workload is one benchmark scenario. Queue policy, shard count, WAL and
// faults define it; everything else is the drivers' default.
type workload struct {
	name, why string
	jobs      int // frozen trace length
	stream    bool
	policy    sched.QueuePolicy
	shards    int // 0 = flat
	wal       bool
	faults    bool
}

// Job counts were tuned once on the machine in README.md so one replay
// takes 2–3 s; --seconds decides how many replays one run makes.
var workloads = []workload{
	{name: "snap-fcfs", jobs: 2000, policy: sched.FCFS,
		why: "queue snapshot under FCFS: ~1.2 match attempts per job, so time is DFU match on the 89k-vertex graph plus fixed per-cycle cost; the wake/skip engine idles"},
	{name: "stream-easy", jobs: 750, stream: true, policy: sched.EASY,
		why: "overloaded arrival stream under EASY: most attempts are failing matches of woken jobs, so the incremental engine and failed-match cost dominate"},
	{name: "stream-cons", jobs: 380, stream: true, policy: sched.Conservative,
		why: "same stream shape under conservative backfill: one standing reservation per pending job, so allocate-or-reserve and planner span churn dominate"},
	{name: "stream-easy-wal", jobs: 750, stream: true, policy: sched.EASY, wal: true,
		why: "stream-easy's exact trace with a durable.Store attached: the same decisions, now journaled, so a sched gain that bloats the WAL shows"},
	{name: "stream-easy-shard2", jobs: 750, stream: true, policy: sched.EASY, shards: 2,
		why: "stream-easy's exact trace through two rack-cut shards: routing, stealing and the lockstep barrier do work that exists nowhere else"},
	{name: "faults-fcfs", jobs: 600, stream: true, policy: sched.FCFS, faults: true,
		why: "FCFS stream with seeded node down/up pairs: the only workload that writes the graph (status, SDFU filters, eviction, requeue) instead of read-and-claim"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled returns w with its trace shortened to 1/div (tests).
func (w workload) scaled(div int) workload {
	w.jobs = max(w.jobs/div, 20)
	return w
}

func (w workload) input(seed int64) *input {
	return generate(w.jobs, seed, w.stream, w.faults)
}

var pruneSpec = resgraph.PruneSpec{resgraph.ALL: {"core", "node"}}

func buildQuartz() (*resgraph.Graph, error) {
	return grug.BuildGraph(grug.Quartz(quartzRacks, quartzNodesPerRack, quartzCoresPerNode), 0, fluxion.DefaultHorizon, pruneSpec)
}

// loopTarget is the driver surface shared by *sched.Scheduler and
// *shard.Sharded, as in internal/simcli.
type loopTarget interface {
	Now() int64
	HasEvents() bool
	NextEventAt() int64
	AdvanceTo(int64) error
	Step() bool
	Schedule()
	SubmitPriority(int64, *jobspec.Jobspec, int) (*sched.Job, error)
	Atomic(func())
	Job(int64) (*sched.Job, bool)
	Stats() sched.Stats
	Metrics() sched.Metrics
}

// system is one freshly built scheduler stack.
type system struct {
	in      *input
	target  loopTarget
	g       *resgraph.Graph
	f       *fluxion.Fluxion // nil when sharded
	flat    *sched.Scheduler // nil when sharded
	sharded *shard.Sharded
	store   *durable.Store
	walDir  string
}

// freshFlat builds graph + fluxion + scheduler exactly as a first start
// does; durable.Restore replays the journal onto the same construction.
func freshFlat(policy sched.QueuePolicy) (*fluxion.Fluxion, *sched.Scheduler, error) {
	g, err := buildQuartz()
	if err != nil {
		return nil, nil, err
	}
	f, err := fluxion.New(fluxion.WithGraph(g))
	if err != nil {
		return nil, nil, err
	}
	s, err := sched.New(f.Traverser(), policy)
	return f, s, err
}

// setup generates the workload's inputs and builds its stack. Its wall
// time is the setup_s metric. tmp is where a WAL directory may be made.
func setup(w workload, seed int64, tmp string) (*system, error) {
	sys := &system{in: w.input(seed)}
	if w.shards > 0 {
		g, err := buildQuartz()
		if err != nil {
			return nil, err
		}
		sh, err := shard.New(shard.Config{Graph: g, Shards: w.shards, CutType: "rack", Queue: w.policy})
		if err != nil {
			return nil, err
		}
		sys.g, sys.sharded, sys.target = g, sh, sh
		return sys, nil
	}
	f, s, err := freshFlat(w.policy)
	if err != nil {
		return nil, err
	}
	sys.g, sys.f, sys.flat, sys.target = f.Graph(), f, s, s
	if w.wal {
		if sys.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, err
		}
		if sys.store, err = durable.Open(durable.Options{Dir: sys.walDir}); err != nil {
			return nil, err
		}
		sys.store.Attach(f, s)
	}
	if len(sys.in.faults) > 0 {
		nodes := sys.g.ByType("node")
		paths := make([]string, len(nodes))
		for i, v := range nodes {
			paths[i] = v.Path()
		}
		sort.Strings(paths)
		s.Atomic(func() {
			for _, ft := range sys.in.faults {
				if err == nil {
					err = s.ScheduleNodeDown(ft.Down, paths[ft.Node])
				}
				if err == nil {
					err = s.ScheduleNodeUp(ft.Up, paths[ft.Node])
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// close releases the WAL, if any, and its directory. It closes the log
// below the store: Store.Close would first write a snapshot of the whole
// graph, seconds of work that belong to no metric here (durable.close_ms
// times it once, on purpose).
func (sys *system) close() error {
	if sys.store == nil {
		return nil
	}
	err := sys.store.Log().Close()
	if rerr := os.RemoveAll(sys.walDir); err == nil {
		err = rerr
	}
	return err
}

// jobRecord is what the benchmark keeps of one decided job.
type jobRecord struct {
	id, submit, start, end, nodes, duration int64
	state                                   sched.JobState
}

// replayResult is one repetition's raw measurements.
type replayResult struct {
	wall      time.Duration
	cycleNS   []int64 // wall time of each driver iteration that ran a cycle
	cycleAt   []int64 // simulated time of that cycle
	rejected  int
	allocB    uint64 // TotalAlloc delta over the replay
	heapLiveB uint64 // HeapAlloc after a forced GC, stack still live
	records   []jobRecord
	stats     sched.Stats
	metrics   sched.Metrics
	rec       *recorder // nil on an untraced replay
}

// driver is the bench's own copy of simcli's event loop: arrivals
// interleave with completion and node events on the scheduler clock.
type driver struct {
	s        loopTarget
	jobs     []trace.Job
	i        int // next arrival
	iter     int32
	rejected int
	cycleNS  []int64
	cycleAt  []int64
	rec      *recorder
}

func (d *driver) cycle(t0 time.Time) {
	d.cycleNS = append(d.cycleNS, int64(time.Since(t0)))
	d.cycleAt = append(d.cycleAt, d.s.Now())
}

func (d *driver) run() error {
	s, rec := d.s, d.rec
	for d.i < len(d.jobs) || s.HasEvents() {
		d.iter++
		if d.i < len(d.jobs) && d.jobs[d.i].Submit <= s.Now() {
			// Arrival batch: submit everything due and re-plan, as one
			// journal command unit.
			t0 := time.Now()
			batch := rec.begin(spanBatch, noParent, d.iter)
			s.Atomic(func() {
				accepted := 0
				for d.i < len(d.jobs) && d.jobs[d.i].Submit <= s.Now() {
					j := d.jobs[d.i]
					js := j.Jobspec()
					sp := rec.begin(spanSubmit, batch, d.iter)
					_, err := s.SubmitPriority(j.ID, js, j.Priority)
					rec.end(sp)
					if err != nil {
						d.rejected++
					} else {
						accepted++
					}
					d.i++
				}
				if accepted > 0 {
					sp := rec.begin(spanSchedule, batch, d.iter)
					s.Schedule()
					rec.end(sp)
				}
			})
			rec.end(batch)
			d.cycle(t0)
			continue
		}
		if d.i < len(d.jobs) && (!s.HasEvents() || d.jobs[d.i].Submit < s.NextEventAt()) {
			sp := rec.begin(spanAdvance, noParent, d.iter)
			err := s.AdvanceTo(d.jobs[d.i].Submit)
			rec.end(sp)
			if err != nil {
				return err
			}
			continue
		}
		t0 := time.Now()
		sp := rec.begin(spanStep, noParent, d.iter)
		ok := s.Step()
		rec.end(sp)
		if !ok {
			break
		}
		d.cycle(t0)
	}
	return nil
}

// replay drives the system's trace to completion and collects the raw
// measurements. traced selects span recording.
func replay(sys *system, traced bool) (*replayResult, error) {
	jobs := sys.in.jobs
	// Every job costs at most one arrival iteration and one completion
	// step, every fault two steps; allocate before the memory readings.
	iters := 2*len(jobs) + 2*len(sys.in.faults) + 16
	d := &driver{s: sys.target, jobs: jobs, cycleNS: make([]int64, 0, iters), cycleAt: make([]int64, 0, iters)}
	if traced {
		rec := newRecorder(3*iters + len(jobs))
		d.rec = rec
		if sys.f != nil {
			defer sys.f.TapDeltas(func(fluxion.ResourceDelta) { rec.deltas++ })()
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if d.rec != nil {
		d.rec.base = start
	}
	err := d.run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	res := &replayResult{
		wall: wall, cycleNS: d.cycleNS, cycleAt: d.cycleAt, rejected: d.rejected,
		allocB: after.TotalAlloc - before.TotalAlloc, rec: d.rec,
		stats: sys.target.Stats(), metrics: sys.target.Metrics(),
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.heapLiveB = after.HeapAlloc
	res.records = make([]jobRecord, 0, len(jobs))
	for _, j := range jobs {
		job, ok := sys.target.Job(j.ID)
		if !ok {
			return nil, fmt.Errorf("job %d vanished from the scheduler", j.ID)
		}
		res.records = append(res.records, jobRecord{
			id: j.ID, submit: j.Submit, start: job.StartAt, end: job.EndAt,
			nodes: j.Nodes, duration: j.Duration, state: job.State,
		})
	}
	runtime.KeepAlive(sys)
	return res, nil
}
