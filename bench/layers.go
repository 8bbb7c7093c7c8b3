package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fluxion"
	"fluxion/internal/durable"
	"fluxion/internal/sched"
	"fluxion/internal/shard"
)

const (
	// A snapshot of the 89k-vertex graph and a recovery each take about
	// two seconds, so a run affords few of them.
	recoveryImages    = 3 // crash images Open+Restore is timed on
	explicitSnapshots = 2 // Snapshot() calls timed after the replay
)

// perLayer measures where the time goes: one untraced replay (the
// reference for the tracing overhead), one traced replay whose spans
// make the ledger, and timed probes of the layers below the scheduler.
func perLayer(w workload, runSeed int64, tmp string, info io.Writer, traceOut string) (result, error) {
	// The ledger describes one replay, so it uses the first of the
	// run's traces.
	seed := subSeed(runSeed, 0)
	m := metricSet{}
	if err := warmUp(w, seed, tmp); err != nil {
		return result{}, err
	}
	plain, err := repeat(w, seed, tmp, false, nil)
	if err != nil {
		return result{}, err
	}
	traced, err := repeat(w, seed, tmp, true, func(sys *system) error {
		if sys.sharded != nil {
			routerMetrics(sys.sharded, m)
		}
		if sys.store != nil {
			return durableMetrics(w, sys, tmp, m)
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	if err := sameDecisions(w, plain, traced); err != nil {
		return result{}, fmt.Errorf("traced replay: %w", err)
	}
	res, rec := traced.res, traced.res.rec
	jobs := float64(len(res.records))
	fmt.Fprintf(info, "workload %s: %d jobs, %d faults, seed %d, trace sha256 %s\n", w.name, len(res.records), traced.nFaults, seed, traced.sha)
	fmt.Fprintf(info, "  decision_digest %s, retry_exhausted %d, %d spans, replay wall %.4f s traced / %.4f s untraced\n",
		traced.v.digest, traced.v.retryExhausted, len(rec.spans), res.wall.Seconds(), plain.res.wall.Seconds())

	layer := "sched"
	if w.shards > 0 {
		layer = "shard"
	}
	led := rec.ledger(res.wall)
	led.print(info, layer)
	us, ms := 1e3, 1e6
	submit, schedule, step := rec.durations(spanSubmit), rec.durations(spanSchedule), rec.durations(spanStep)
	m.put(layer+".submit_us_p50", percentile(submit, 0.50)/us)
	m.put(layer+".submit_us_p99", percentile(submit, 0.99)/us)
	m.put(layer+".schedule_ms_p50", percentile(schedule, 0.50)/ms)
	m.put(layer+".step_ms_p50", percentile(step, 0.50)/ms)
	m.put(layer+".step_ms_p99", percentile(step, 0.99)/ms)
	m.put(layer+".submit_busy_s", led.submit.Seconds())
	m.put(layer+".schedule_busy_s", led.schedule.Seconds())
	m.put(layer+".step_busy_s", led.step.Seconds())
	m.put(layer+".advance_busy_s", led.advance.Seconds())
	if w.shards == 0 {
		m.put("sched.schedule_ms_p99", percentile(schedule, 0.99)/ms)
		m.put("sched.advance_us_p50", percentile(rec.durations(spanAdvance), 0.50)/us)
		m.put("sched.atomic_self_s", led.batchSelf.Seconds())
		m.put("resgraph.deltas_per_job", float64(rec.deltas)/jobs)
	}
	m.put("driver.self_s", led.self.Seconds())
	m.put("driver.span_coverage_frac", led.coverage())
	m.put("trace_overhead_frac", res.wall.Seconds()/plain.res.wall.Seconds()-1)

	pendingP99 := percentile(pendingDepths(res), 0.99)
	m.put("sched.cycles", float64(res.stats.Cycles))
	m.put("sched.match_attempts_per_job", float64(res.stats.MatchAttempts)/jobs)
	m.put("sched.woken", float64(res.stats.WokenJobs))
	m.put("sched.skipped", float64(res.stats.SkippedJobs))
	m.put("sched.pending_p99", pendingP99)
	m.put("sched.match_success_ratio", float64(res.metrics.Completed+res.metrics.Requeues)/float64(res.stats.MatchAttempts))
	m.put("sched.match_time_share", res.metrics.TotalMatch.Seconds()/res.wall.Seconds())

	if w.wal || w.shards > 0 {
		// The same trace through the plain flat scheduler is the base
		// both the WAL's cost and the shards' gain are stated against.
		flatW, _ := findWorkload("stream-easy")
		flatW.jobs = w.jobs
		flat, err := repeat(flatW, seed, tmp, false, nil)
		if err != nil {
			return result{}, err
		}
		if flat.sha != plain.sha {
			return result{}, fmt.Errorf("%s does not replay stream-easy's trace", w.name)
		}
		speedup := flat.res.wall.Seconds() / plain.res.wall.Seconds()
		if w.wal {
			if flat.v.digest != plain.v.digest {
				return result{}, fmt.Errorf("%s decided differently from stream-easy: %s vs %s", w.name, plain.v.digest, flat.v.digest)
			}
			m.put("durable.overhead_frac", 1-speedup)
		} else {
			m.put("shard.speedup_vs_flat", speedup)
			m.put("shard.util_delta_pp", plain.v.utilPct-flat.v.utilPct)
			m.put("shard.wait_delta_s", plain.v.meanWaitS-flat.v.meanWaitS)
		}
	}

	if err := resgraphProbe(m); err != nil {
		return result{}, fmt.Errorf("resgraph probe: %w", err)
	}
	in := w.input(seed)
	withReserve := w.policy == sched.Conservative
	if err := traverserProbe(in, int(pendingP99), withReserve, m); err != nil {
		return result{}, fmt.Errorf("traverser probe: %w", err)
	}
	if withReserve {
		if err := plannerProbe(res.records, seed, m); err != nil {
			return result{}, fmt.Errorf("planner probe: %w", err)
		}
	}
	if w.wal {
		if err := walProbe(tmp, m); err != nil {
			return result{}, fmt.Errorf("wal probe: %w", err)
		}
	}
	if traceOut != "" {
		if err := rec.writeChromeTrace(traceOut, layer); err != nil {
			return result{}, err
		}
		fmt.Fprintf(info, "  wrote %d spans to %s\n", len(rec.spans), traceOut)
	}
	m.fill(perLayerDefs)
	return result{
		Correct:   true,
		Attempted: len(res.records),
		Failed:    traced.v.failed,
		Metrics:   m,
	}, nil
}

// pendingDepths returns the queue depth before each cycle, worked out
// from the job records afterwards so that sampling costs the replay
// nothing: a job waits from its submit until its (final) start.
func pendingDepths(res *replayResult) []int64 {
	var submits, starts []int64
	for _, r := range res.records {
		submits = append(submits, r.submit)
		if r.state == sched.StateCompleted {
			starts = append(starts, r.start)
		}
	}
	sort.Slice(submits, func(a, b int) bool { return submits[a] < submits[b] })
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	out := make([]int64, len(res.cycleAt))
	for i, t := range res.cycleAt {
		submitted := sort.Search(len(submits), func(k int) bool { return submits[k] > t })
		started := sort.Search(len(starts), func(k int) bool { return starts[k] >= t })
		out[i] = int64(submitted - started)
	}
	return out
}

// routerMetrics reports the router's placement work and how evenly the
// shards shared the jobs (max ÷ mean completed per shard).
func routerMetrics(sh *shard.Sharded, m metricSet) {
	rs := sh.RouterStats()
	m.put("shard.routed", float64(rs.Routed))
	m.put("shard.rerouted", float64(rs.Rerouted))
	m.put("shard.steals", float64(rs.Steals))
	m.put("shard.unroutable", float64(rs.Unroutable))
	most, total := 0, 0
	for i := 0; i < sh.Shards(); i++ {
		done := 0
		for _, j := range sh.ShardScheduler(i).Jobs() {
			if j.State == sched.StateCompleted {
				done++
			}
		}
		most, total = max(most, done), total+done
	}
	m.put("shard.imbalance", float64(most*sh.Shards())/float64(total))
}

// durableMetrics measures the durability layer on the replayed stack:
// journal size, explicit snapshots, close, and recovery of crash images
// (the directory as it is before Close, journal tail unsnapshotted).
func durableMetrics(w workload, sys *system, tmp string, m metricSet) error {
	st := sys.store
	if err := st.Log().Sync(); err != nil {
		return err
	}
	images := make([]string, recoveryImages)
	for i := range images {
		var err error
		if images[i], err = copyDir(sys.walDir, tmp); err != nil {
			return err
		}
	}
	segs, err := filepath.Glob(filepath.Join(images[0], "*.wal"))
	if err != nil {
		return err
	}
	journal := int64(0)
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		journal += fi.Size()
	}
	jobs := float64(len(sys.in.jobs))
	m.put("wal.bytes_per_job", float64(journal)/jobs)

	var snaps []int64
	for i := 0; i < explicitSnapshots; i++ {
		t0 := time.Now()
		if err := st.Snapshot(); err != nil {
			return err
		}
		snaps = append(snaps, int64(time.Since(t0)))
	}
	m.put("durable.snapshot_ms_p50", percentile(snaps, 0.50)/1e6)
	t0 := time.Now()
	if err := st.Close(); err != nil {
		return err
	}
	m.put("durable.close_ms", float64(time.Since(t0))/1e6)

	var opens, restores, totals []int64
	for _, dir := range images {
		t0 := time.Now()
		st2, err := durable.Open(durable.Options{Dir: dir})
		if err != nil {
			return err
		}
		t1 := time.Now()
		_, s2, err := st2.Restore(func() (*fluxion.Fluxion, *sched.Scheduler, error) { return freshFlat(w.policy) },
			[]fluxion.Option{fluxion.WithPruneSpec(pruneSpec)}, nil)
		t2 := time.Now()
		if err != nil {
			return err
		}
		stats := st2.Stats()
		if err := st2.Close(); err != nil {
			return err
		}
		for _, j := range sys.in.jobs {
			live, _ := sys.flat.Job(j.ID)
			got, ok := s2.Job(j.ID)
			if !ok || got.State != live.State || got.StartAt != live.StartAt || got.EndAt != live.EndAt {
				return fmt.Errorf("recovery lost job %d", j.ID)
			}
		}
		opens, restores, totals = append(opens, int64(t1.Sub(t0))), append(restores, int64(t2.Sub(t1))), append(totals, int64(t2.Sub(t0)))
		if dir == images[0] {
			m.put("wal.records_replayed", float64(stats.RecordsReplayed))
			m.put("wal.records_per_job", float64(stats.LastLSN)/jobs)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	m.put("durable.open_ms", percentile(opens, 0.50)/1e6)
	m.put("durable.restore_ms", percentile(restores, 0.50)/1e6)
	m.put("durable.recovery_s", percentile(totals, 0.50)/1e9)
	return nil
}

// copyDir copies the regular files of a flat directory (a WAL crash
// image) into a new directory under tmp.
func copyDir(src, tmp string) (string, error) {
	dst, err := os.MkdirTemp(tmp, "image-")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}
