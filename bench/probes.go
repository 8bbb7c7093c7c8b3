package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"fluxion"
	"fluxion/internal/jobspec"
	"fluxion/internal/planner"
	"fluxion/internal/sched"
	"fluxion/internal/trace"
	"fluxion/internal/traverser"
	"fluxion/internal/wal"
)

// Layer probes are direct timed calls into a lower layer's public
// functions, on state shaped like the workload's. Each loop stops at its
// sample count or its time budget, whichever comes first, so a slow
// layer cannot stretch the run.
const (
	probeSpecs   = 256 // jobspecs drawn from the trace
	probeSamples = 400 // timed calls per probe
	allocSamples = 40  // calls the malloc count is averaged over
)

// probeBudget is the wall time one probe loop may take (tests shorten it).
var probeBudget = 400 * time.Millisecond

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// resgraphProbe times building the graph and weighs it at rest.
func resgraphProbe(m metricSet) error {
	var builds []int64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		t0 := time.Now()
		g, err := buildQuartz()
		if err != nil {
			return err
		}
		builds = append(builds, int64(time.Since(t0)))
		if i == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			m.put("resgraph.bytes_per_vertex", float64(ms.HeapAlloc-before)/float64(g.Len()))
		}
		runtime.KeepAlive(g)
	}
	m.put("resgraph.build_ms", percentile(builds, 0.50)/1e6)
	return nil
}

// traverserProbe times the matcher on a fresh traverser over the
// workload's graph with jobspecs drawn from its trace: successful
// matches and cancels at 50% load, node down/up at 50% load, failing
// matches on a full machine and — for the reserving workload — earliest
// reservations on a full machine already holding reserveDepth of them.
func traverserProbe(in *input, reserveDepth int, withReserve bool, m metricSet) error {
	g, err := buildQuartz()
	if err != nil {
		return err
	}
	f, err := fluxion.New(fluxion.WithGraph(g))
	if err != nil {
		return err
	}
	tr := f.Traverser()

	n := min(len(in.jobs), probeSpecs)
	specs := make([]*jobspec.Compiled, n)
	var compiles []int64
	for i := range specs {
		js := in.jobs[i].Jobspec()
		t0 := time.Now()
		if specs[i], err = tr.Compile(js); err != nil {
			return err
		}
		compiles = append(compiles, int64(time.Since(t0)))
	}
	m.put("jobspec.compile_us_p50", percentile(compiles, 0.50)/1e3)

	// Load the machine to half its nodes.
	nextID := int64(1)
	held := map[int64]int{} // job ID → spec index, for re-placing evictions
	used := int64(0)
	for i := 0; used < quartzNodes/2; i++ {
		k := i % n
		if used+in.jobs[k].Nodes > quartzNodes/2+quartzNodes/8 {
			continue
		}
		if _, err := tr.MatchAllocateCompiled(nextID, specs[k], 0); err != nil {
			return fmt.Errorf("loading to 50%%: %w", err)
		}
		held[nextID] = k
		used += in.jobs[k].Nodes
		nextID++
	}

	var matches, cancels []int64
	for i, stop := 0, time.Now().Add(probeBudget); i < probeSamples && time.Now().Before(stop); i++ {
		t0 := time.Now()
		_, err := tr.MatchAllocateCompiled(nextID, specs[i%n], 0)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("match at 50%% load: %w", err)
		}
		if err := tr.Cancel(nextID); err != nil {
			return err
		}
		matches, cancels = append(matches, int64(t1.Sub(t0))), append(cancels, int64(time.Since(t1)))
		nextID++
	}
	m.put("traverser.match_us_p50", percentile(matches, 0.50)/1e3)
	m.put("traverser.match_us_p99", percentile(matches, 0.99)/1e3)
	m.put("traverser.cancel_us_p50", percentile(cancels, 0.50)/1e3)
	allocs := uint64(0)
	for i := 0; i < allocSamples; i++ {
		before := mallocs()
		_, err := tr.MatchAllocateCompiled(nextID, specs[i%n], 0)
		allocs += mallocs() - before
		if err != nil {
			return err
		}
		if err := tr.Cancel(nextID); err != nil {
			return err
		}
		nextID++
	}
	m.put("traverser.allocs_per_match", float64(allocs)/allocSamples)

	// Node down/up at 50% load; evicted jobs are placed again so the
	// load holds.
	nodes := g.ByType("node")
	var downs, ups []int64
	for i, stop := 0, time.Now().Add(probeBudget); i < probeSamples/4 && time.Now().Before(stop); i++ {
		path := nodes[(i*97)%len(nodes)].Path()
		t0 := time.Now()
		evicted, err := tr.MarkDown(path)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if err := tr.MarkUp(path); err != nil {
			return err
		}
		downs, ups = append(downs, int64(t1.Sub(t0))), append(ups, int64(time.Since(t1)))
		for _, a := range evicted {
			if _, err := tr.MatchAllocateCompiled(a.JobID, specs[held[a.JobID]], 0); err != nil {
				return fmt.Errorf("re-placing evicted job: %w", err)
			}
		}
	}
	m.put("resgraph.markdown_us_p50", percentile(downs, 0.50)/1e3)
	m.put("resgraph.markup_us_p50", percentile(ups, 0.50)/1e3)

	// Fill the machine: trace jobs while they fit, then single nodes.
	one, err := tr.Compile(trace.Job{ID: 1, Nodes: 1, CoresPerNode: quartzCoresPerNode, Duration: runtimeMax}.Jobspec())
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		spec := one
		if i < n {
			spec = specs[i]
		}
		if _, err := tr.MatchAllocateCompiled(nextID, spec, 0); errors.Is(err, traverser.ErrNoMatch) {
			if i >= n {
				break
			}
			continue
		} else if err != nil {
			return fmt.Errorf("filling the machine: %w", err)
		}
		nextID++
	}
	var fulls []int64
	for i, stop := 0, time.Now().Add(probeBudget); i < probeSamples && time.Now().Before(stop); i++ {
		t0 := time.Now()
		_, err := tr.MatchAllocateCompiled(nextID, specs[i%n], 0)
		fulls = append(fulls, int64(time.Since(t0)))
		if !errors.Is(err, traverser.ErrNoMatch) {
			return fmt.Errorf("match on a full machine: got %v, want no match", err)
		}
	}
	m.put("traverser.match_full_us_p50", percentile(fulls, 0.50)/1e3)
	if !withReserve {
		return nil
	}

	// Standing reservations, as conservative backfill holds for its
	// pending queue, then timed reserve+cancel pairs on top of them.
	for i := 0; i < reserveDepth; i++ {
		if _, err := tr.MatchAllocateOrReserveCompiled(nextID, specs[i%n], 0); err != nil {
			return fmt.Errorf("standing reservation %d: %w", i, err)
		}
		nextID++
	}
	var reserves []int64
	for i, stop := 0, time.Now().Add(2*probeBudget); i < probeSamples && time.Now().Before(stop); i++ {
		t0 := time.Now()
		_, err := tr.MatchAllocateOrReserveCompiled(nextID, specs[i%n], 0)
		reserves = append(reserves, int64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("reserve: %w", err)
		}
		if err := tr.Cancel(nextID); err != nil {
			return err
		}
		nextID++
	}
	m.put("traverser.reserve_us_p50", percentile(reserves, 0.50)/1e3)
	m.put("traverser.reserve_us_p99", percentile(reserves, 0.99)/1e3)
	allocs = 0
	for i := 0; i < allocSamples/4; i++ {
		before := mallocs()
		_, err := tr.MatchAllocateOrReserveCompiled(nextID, specs[i%n], 0)
		allocs += mallocs() - before
		if err != nil {
			return err
		}
		if err := tr.Cancel(nextID); err != nil {
			return err
		}
		nextID++
	}
	m.put("traverser.allocs_per_reserve", float64(allocs)/(allocSamples/4))
	return nil
}

// plannerProbe times one node planner holding the workload's own
// decisions as spans: remove and re-add, earliest-fit and fits-during
// queries drawn from the same start/duration/size population. Calls are
// timed in batches because one call is too short for the clock.
func plannerProbe(records []jobRecord, seed int64, m metricSet) error {
	const batch = 16
	p, err := planner.New(0, fluxion.DefaultHorizon, quartzNodes, "node")
	if err != nil {
		return err
	}
	var spans []jobRecord
	for _, r := range records {
		if r.state == sched.StateCompleted {
			spans = append(spans, r)
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	ids := make([]int64, len(spans))
	for i, r := range spans {
		if ids[i], err = p.AddSpan(r.start, r.duration, r.nodes); err != nil {
			return fmt.Errorf("planning job %d: %w", r.id, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var adds, rems, firsts, fits []int64
	for b, stop := 0, time.Now().Add(probeBudget); b < probeSamples && time.Now().Before(stop); b++ {
		picks := rng.Perm(len(spans))[:min(batch, len(spans))]
		t0 := time.Now()
		for _, k := range picks {
			if err := p.RemoveSpan(ids[k]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for _, k := range picks {
			if ids[k], err = p.AddSpan(spans[k].start, spans[k].duration, spans[k].nodes); err != nil {
				return err
			}
		}
		t2 := time.Now()
		for _, k := range picks {
			if _, err := p.AvailTimeFirst(spans[k].start, spans[k].duration, spans[k].nodes); err != nil {
				return err
			}
		}
		t3 := time.Now()
		for _, k := range picks {
			p.CanFit(spans[k].start, spans[k].duration, spans[k].nodes)
		}
		t4 := time.Now()
		per := int64(len(picks))
		rems, adds = append(rems, int64(t1.Sub(t0))/per), append(adds, int64(t2.Sub(t1))/per)
		firsts, fits = append(firsts, int64(t3.Sub(t2))/per), append(fits, int64(t4.Sub(t3))/per)
	}
	m.put("planner.rem_ns_p50", percentile(rems, 0.50))
	m.put("planner.add_ns_p50", percentile(adds, 0.50))
	m.put("planner.avail_first_ns_p50", percentile(firsts, 0.50))
	m.put("planner.sat_during_ns_p50", percentile(fits, 0.50))
	return nil
}

// walProbe times the log below the durability layer: buffered appends of
// a 64-byte record, and a commit made durable with Sync. The directory
// may be on tmpfs; this is the journaling CPU path and group commit, not
// a device benchmark.
func walProbe(tmp string, m metricSet) error {
	const batch = 64
	dir, err := os.MkdirTemp(tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, 64)
	var appends, syncs []int64
	for b, stop := 0, time.Now().Add(probeBudget); b < probeSamples && time.Now().Before(stop); b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := log.Append(1, false, payload); err != nil {
				return err
			}
		}
		appends = append(appends, int64(time.Since(t0))/batch)
	}
	for i, stop := 0, time.Now().Add(probeBudget); i < probeSamples/4 && time.Now().Before(stop); i++ {
		t0 := time.Now()
		if _, err := log.Append(1, true, payload); err != nil {
			return err
		}
		if err := log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, int64(time.Since(t0)))
	}
	m.put("wal.append_ns_p50", percentile(appends, 0.50))
	m.put("wal.commit_sync_us_p50", percentile(syncs, 0.50)/1e3)
	return log.Close()
}
