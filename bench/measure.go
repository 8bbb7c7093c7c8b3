package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"
)

const (
	// subTraces is how many different traces one run replays. Backfill
	// is chaotic: moving one runtime by a second reshuffles who waits for
	// whom, and a single trace's simulated wait moves by ±15% between
	// seeds. A run therefore replays subTraces traces drawn from its
	// seed and reports across them, which is the "more work per run"
	// that makes the seed-to-seed spread fit under the bounds.
	subTraces = 4
	minSetups = 9 // set-up samples per run, at least
)

// subSeed is the seed of a run's k-th trace; distinct (seed, k) pairs
// give distinct values.
func subSeed(seed int64, k int) int64 { return seed*subTraces + int64(k) }

// repetition is one fresh set-up, replay and output check.
type repetition struct {
	setup   time.Duration
	res     *replayResult
	v       verdict
	sha     string
	nFaults int
}

// timeSetup builds a fresh stack and discards it, for one more sample of
// the set-up time.
func timeSetup(w workload, seed int64, tmp string) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := setup(w, seed, tmp)
	if err != nil {
		return 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	d := time.Since(t0)
	return d, sys.close()
}

// repeat builds a fresh stack, replays the trace on it and checks the
// decisions. after, when set, sees the replayed stack before it is
// closed.
func repeat(w workload, seed int64, tmp string, traced bool, after func(*system) error) (rep *repetition, err error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := setup(w, seed, tmp)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	rep = &repetition{setup: time.Since(t0), sha: sys.in.sha256, nFaults: len(sys.in.faults)}
	defer func() {
		if cerr := sys.close(); err == nil && cerr != nil {
			rep, err = nil, fmt.Errorf("%s: close: %w", w.name, cerr)
		}
	}()
	if rep.res, err = replay(sys, traced); err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	if rep.v, err = check(w, sys.in, rep.res); err != nil {
		return nil, fmt.Errorf("%s: output check: %w", w.name, err)
	}
	if after != nil {
		if err := after(sys); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return rep, nil
}

// warmUp replays a quarter-length trace once and discards it, so the
// first timed repetition does not pay for growing the heap to the size
// of the graph.
func warmUp(w workload, seed int64, tmp string) error {
	_, err := repeat(w.scaled(4), seed, tmp, false, nil)
	return err
}

// sameDecisions fails unless b decided exactly what a did on the same
// inputs.
func sameDecisions(w workload, a, b *repetition) error {
	if a.sha != b.sha {
		return fmt.Errorf("%s: trace sha256 changed between repetitions", w.name)
	}
	if a.v != b.v || a.res.stats.MatchAttempts != b.res.stats.MatchAttempts {
		return fmt.Errorf("%s: decisions differ between repetitions: %+v (%d attempts) vs %+v (%d attempts)",
			w.name, a.v, a.res.stats.MatchAttempts, b.v, b.res.stats.MatchAttempts)
	}
	return nil
}

// endToEnd measures the user-visible metrics with tracing off. It
// replays the run's subTraces traces in turn, each on fresh state, until
// every trace has run and the replays have lasted the asked seconds.
// Timings are medians over the repetitions; simulated metrics, which
// repeat exactly for a trace, are means over the traces.
func endToEnd(w workload, seed int64, seconds float64, tmp string, info io.Writer) (result, error) {
	if err := warmUp(w, seed, tmp); err != nil {
		return result{}, err
	}
	var first [subTraces]*repetition
	var setups, rates, allocKB, heapMB []float64
	var cycles []int64
	measured, reps := 0.0, 0
	for ; reps < subTraces || measured < seconds; reps++ {
		k := reps % subTraces
		rep, err := repeat(w, subSeed(seed, k), tmp, false, nil)
		if err != nil {
			return result{}, err
		}
		if first[k] == nil {
			first[k] = rep
		} else if err := sameDecisions(w, first[k], rep); err != nil {
			return result{}, err
		}
		n := float64(len(rep.res.records))
		measured += rep.res.wall.Seconds()
		setups = append(setups, rep.setup.Seconds())
		rates = append(rates, n/rep.res.wall.Seconds())
		allocKB = append(allocKB, float64(rep.res.allocB)/1024/n)
		heapMB = append(heapMB, float64(rep.res.heapLiveB)/(1<<20))
		cycles = append(cycles, rep.res.cycleNS...)
	}
	for len(setups) < minSetups {
		d, err := timeSetup(w, subSeed(seed, 0), tmp)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}

	jobs, failed, exhausted := 0, 0, 0
	var wait, util float64
	digest := sha256.New()
	fmt.Fprintf(info, "workload %s, seed %d: %d traces of %d jobs\n", w.name, seed, subTraces, w.jobs)
	for k, rep := range first {
		fmt.Fprintf(info, "  trace %d: seed %d, %d faults, sha256 %s, decision_digest %s\n", k, subSeed(seed, k), rep.nFaults, rep.sha, rep.v.digest)
		jobs += len(rep.res.records)
		failed += rep.v.failed
		exhausted += rep.v.retryExhausted
		wait += rep.v.meanWaitS / subTraces
		util += rep.v.utilPct / subTraces
		digest.Write([]byte(rep.v.digest))
	}
	fmt.Fprintf(info, "  %d repetitions, %.2f s replayed, %d cycle samples, decision_digest %s, retry_exhausted %d\n",
		reps, measured, len(cycles), hex.EncodeToString(digest.Sum(nil)[:8]), exhausted)
	fmt.Fprintf(info, "  jobs_per_s by repetition: %.1f\n", rates)

	m := metricSet{}
	m.put("jobs_per_s", median(rates))
	m.put("setup_s", median(setups))
	m.put("cycle_p99_ms", percentile(cycles, 0.99)/1e6)
	m.put("alloc_kb_per_job", median(allocKB))
	m.put("heap_live_mb", median(heapMB))
	m.put("sim_mean_wait_s", wait)
	m.put("sim_util_pct", util)
	// Every repetition offers its trace's jobs again; the counts cover
	// one pass over the traces so they do not depend on how many
	// repetitions the machine's speed allowed.
	return result{Correct: true, Attempted: jobs, Failed: failed, Metrics: m}, nil
}
