package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported value. The last line of a run prints these by
// name; BENCHMARK.json lists the same names with direction and bound.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the two tables below are the
// benchmark's vocabulary and match BENCHMARK.json name for name.
type metricDef struct{ name, unit string }

// endToEndDefs are what a user of the scheduler sees. Every workload
// reports all of them from untraced replays.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cycle_p99_ms", "ms"},
	{"alloc_kb_per_job", "KiB"},
	{"heap_live_mb", "MiB"},
	{"sim_mean_wait_s", "s"},
	{"sim_util_pct", "%"},
}

// perLayerDefs attribute the cost to layers. A metric that does not
// apply to a workload (shard.* on a flat one, durable.* without a WAL,
// the reservation probes off stream-cons) reads 0 there.
var perLayerDefs = []metricDef{
	// Spans around the driver's calls into sched (flat workloads).
	{"sched.submit_us_p50", "us"}, {"sched.submit_us_p99", "us"},
	{"sched.schedule_ms_p50", "ms"}, {"sched.schedule_ms_p99", "ms"},
	{"sched.step_ms_p50", "ms"}, {"sched.step_ms_p99", "ms"},
	{"sched.advance_us_p50", "us"},
	{"sched.submit_busy_s", "s"}, {"sched.schedule_busy_s", "s"},
	{"sched.step_busy_s", "s"}, {"sched.advance_busy_s", "s"},
	{"sched.atomic_self_s", "s"},
	// The same spans around shard.Sharded (stream-easy-shard2).
	{"shard.submit_us_p50", "us"}, {"shard.submit_us_p99", "us"},
	{"shard.schedule_ms_p50", "ms"},
	{"shard.step_ms_p50", "ms"}, {"shard.step_ms_p99", "ms"},
	{"shard.submit_busy_s", "s"}, {"shard.schedule_busy_s", "s"},
	{"shard.step_busy_s", "s"}, {"shard.advance_busy_s", "s"},
	{"driver.self_s", "s"}, {"driver.span_coverage_frac", "frac"},
	{"trace_overhead_frac", "frac"},
	// Scheduler work counts.
	{"sched.cycles", "count"}, {"sched.match_attempts_per_job", "count"},
	{"sched.woken", "count"}, {"sched.skipped", "count"},
	{"sched.pending_p99", "count"},
	{"sched.match_success_ratio", "ratio"}, {"sched.match_time_share", "frac"},
	// Router work and what sharding costs in decision quality.
	{"shard.routed", "count"}, {"shard.rerouted", "count"},
	{"shard.steals", "count"}, {"shard.unroutable", "count"},
	{"shard.imbalance", "ratio"}, {"shard.speedup_vs_flat", "ratio"},
	{"shard.util_delta_pp", "pp"}, {"shard.wait_delta_s", "s"},
	// Layer probes: timed calls into a lower layer's public functions.
	{"jobspec.compile_us_p50", "us"},
	{"traverser.match_us_p50", "us"}, {"traverser.match_us_p99", "us"},
	{"traverser.match_full_us_p50", "us"},
	{"traverser.reserve_us_p50", "us"}, {"traverser.reserve_us_p99", "us"},
	{"traverser.cancel_us_p50", "us"},
	{"traverser.allocs_per_match", "count"}, {"traverser.allocs_per_reserve", "count"},
	{"resgraph.build_ms", "ms"}, {"resgraph.bytes_per_vertex", "bytes"},
	{"resgraph.markdown_us_p50", "us"}, {"resgraph.markup_us_p50", "us"},
	{"resgraph.deltas_per_job", "count"},
	{"planner.add_ns_p50", "ns"}, {"planner.rem_ns_p50", "ns"},
	{"planner.avail_first_ns_p50", "ns"}, {"planner.sat_during_ns_p50", "ns"},
	// Durability (stream-easy-wal).
	{"durable.overhead_frac", "frac"}, {"durable.recovery_s", "s"},
	{"durable.open_ms", "ms"}, {"durable.restore_ms", "ms"},
	{"durable.close_ms", "ms"}, {"durable.snapshot_ms_p50", "ms"},
	{"wal.bytes_per_job", "bytes"}, {"wal.records_per_job", "count"},
	{"wal.records_replayed", "count"},
	{"wal.append_ns_p50", "ns"}, {"wal.commit_sync_us_p50", "us"},
}

var metricUnits = func() map[string]string {
	out := map[string]string{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			out[d.name] = d.unit
		}
	}
	return out
}()

// metricSet collects a run's metrics. A name outside the tables, or one
// reported twice, is a bug in the benchmark.
type metricSet map[string]metric

func (m metricSet) put(name string, value float64) {
	unit, ok := metricUnits[name]
	if _, dup := m[name]; dup || !ok {
		panic("bench: metric " + name + " is unknown or reported twice")
	}
	m[name] = metric{Value: value, Unit: unit}
}

// fill reports 0 for every metric of defs the workload did not set.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = metric{Unit: d.unit}
		}
	}
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r result) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printTable writes the metrics one per line, sorted, for a human.
func (m metricSet) printTable(w io.Writer) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// percentile returns the q-quantile (nearest rank) of xs, which it sorts.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// median returns the middle of xs (mean of the middle two), sorting it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
