package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"fluxion/internal/workload"
)

// CSV emitters: machine-readable forms of every figure/table, for plotting
// the reproduction next to the paper's originals.

// WriteLODCSV renders Figure 6a rows.
func WriteLODCSV(w io.Writer, results []LODResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"config", "vertices", "matches", "total_ns", "per_match_ns"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			r.Config,
			strconv.Itoa(r.Vertices),
			strconv.Itoa(r.Matches),
			strconv.FormatInt(r.Total.Nanoseconds(), 10),
			strconv.FormatInt(r.PerMatch.Nanoseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteShardScaleCSV renders the E12 shard-count sweep: throughput plus
// the decision-quality deltas against each policy's 1-shard baseline.
func WriteShardScaleCSV(w io.Writer, results []ShardScaleResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"policy", "shards", "completed", "rerouted", "steals", "unroutable",
		"wall_ns", "jobs_per_sec", "speedup", "util", "util_delta_pp", "mean_wait_s", "wait_delta_s"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			string(r.Policy),
			strconv.Itoa(r.Shards),
			strconv.Itoa(r.Completed),
			strconv.FormatInt(r.Rerouted, 10),
			strconv.FormatInt(r.Steals, 10),
			strconv.FormatInt(r.Unroutable, 10),
			strconv.FormatInt(r.Wall.Nanoseconds(), 10),
			strconv.FormatFloat(r.JobsPerSec, 'f', 1, 64),
			strconv.FormatFloat(r.Speedup, 'f', 3, 64),
			strconv.FormatFloat(r.Util, 'f', 4, 64),
			strconv.FormatFloat(r.UtilDelta, 'f', 2, 64),
			strconv.FormatFloat(r.MeanWait, 'f', 1, 64),
			strconv.FormatFloat(r.WaitDelta, 'f', 1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteShardChaosCSV renders the E13 shard-kill intensity sweep:
// failover work plus the survival and wait cost versus the 0-intensity
// control row.
func WriteShardChaosCSV(w io.Writer, results []ShardChaosResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"intensity", "killed", "failures", "recoveries", "drained", "evicted",
		"lost", "touched", "completed", "survival", "clean_survival", "mean_wait_s", "wait_penalty_s", "wall_ns"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			strconv.FormatFloat(r.Intensity, 'f', 3, 64),
			strconv.Itoa(r.Killed),
			strconv.FormatInt(r.Failures, 10),
			strconv.FormatInt(r.Recoveries, 10),
			strconv.FormatInt(r.Drained, 10),
			strconv.FormatInt(r.Evicted, 10),
			strconv.FormatInt(r.Lost, 10),
			strconv.Itoa(r.Touched),
			strconv.Itoa(r.Completed),
			strconv.FormatFloat(r.Survival, 'f', 4, 64),
			strconv.FormatFloat(r.CleanSurvival, 'f', 4, 64),
			strconv.FormatFloat(r.MeanWait, 'f', 1, 64),
			strconv.FormatFloat(r.WaitPenalty, 'f', 1, 64),
			strconv.FormatInt(r.Wall.Nanoseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMemScaleCSV renders the E11 resting-memory sweep.
func WriteMemScaleCSV(w io.Writer, results []MemScaleResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"racks", "vertices", "build_ns", "heap_bytes", "bytes_per_vertex", "rss_bytes", "rss_bytes_per_vertex"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			strconv.FormatInt(r.Racks, 10),
			strconv.Itoa(r.Vertices),
			strconv.FormatInt(r.Build.Nanoseconds(), 10),
			strconv.FormatUint(r.HeapBytes, 10),
			strconv.FormatFloat(r.BytesPerVertex, 'f', 1, 64),
			strconv.FormatUint(r.RSSBytes, 10),
			strconv.FormatFloat(r.RSSPerVertex, 'f', 1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePlannerCSV renders Figure 6b series points.
func WritePlannerCSV(w io.Writer, results []PlannerResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"test", "spans", "points", "queries", "per_query_ns"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			r.Test,
			strconv.Itoa(r.Spans),
			strconv.Itoa(r.PointCount),
			strconv.Itoa(r.Queries),
			strconv.FormatInt(r.PerQuery.Nanoseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteClassCSV renders the Figure 7a histogram.
func WriteClassCSV(w io.Writer, hist map[int]int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"class", "nodes"}); err != nil {
		return err
	}
	classes := make([]int, 0, len(hist))
	for c := range hist {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		if err := cw.Write([]string{strconv.Itoa(c), strconv.Itoa(hist[c])}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteVarAwareCSV renders the per-policy summary (Fig. 7b + Table 1): one
// row per policy with totals and the fom histogram columns.
func WriteVarAwareCSV(w io.Writer, runs []PolicyRun) error {
	cw := csv.NewWriter(w)
	header := []string{"policy", "immediate", "reserved", "total_match_ns"}
	for f := 0; f < workload.NumClasses; f++ {
		header = append(header, fmt.Sprintf("fom%d", f))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range runs {
		rec := []string{
			policyLabel(r.Policy),
			strconv.Itoa(r.Immediate),
			strconv.Itoa(r.Reserved),
			strconv.FormatInt(r.Total.Nanoseconds(), 10),
		}
		for _, n := range r.Fom {
			rec = append(rec, strconv.Itoa(n))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePerJobCSV renders Figure 7b's per-job series: one row per job per
// policy with its matcher time.
func WritePerJobCSV(w io.Writer, runs []PolicyRun) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"policy", "job", "match_ns"}); err != nil {
		return err
	}
	for _, r := range runs {
		for i, d := range r.PerJob {
			rec := []string{
				policyLabel(r.Policy),
				strconv.Itoa(i + 1),
				strconv.FormatInt(d.Nanoseconds(), 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRecoveryCSV renders the E8 recovery-time-vs-log-length sweep.
func WriteRecoveryCSV(w io.Writer, results []RecoveryResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"records", "log_bytes", "replay_ns", "snapshot_ns", "snapshot_bytes"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			strconv.Itoa(r.Records),
			strconv.FormatInt(r.LogBytes, 10),
			strconv.FormatInt(r.ReplayWall.Nanoseconds(), 10),
			strconv.FormatInt(r.SnapWall.Nanoseconds(), 10),
			strconv.FormatInt(r.SnapshotBytes, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteChaosCSV renders the E9 fault-intensity sweep.
func WriteChaosCSV(w io.Writer, results []ChaosResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"intensity", "clean", "survived", "survival_rate",
		"quarantined", "invalid_rejects", "overload_rejects",
		"cycles", "degraded_cycles", "degraded_frac", "wall_ns"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			strconv.FormatFloat(r.Intensity, 'f', 2, 64),
			strconv.Itoa(r.Clean),
			strconv.Itoa(r.Survived),
			strconv.FormatFloat(r.SurvivalRate, 'f', 4, 64),
			strconv.FormatInt(r.Quarantined, 10),
			strconv.FormatInt(r.InvalidRejects, 10),
			strconv.FormatInt(r.OverloadRejects, 10),
			strconv.FormatInt(r.Cycles, 10),
			strconv.FormatInt(r.DegradedCycles, 10),
			strconv.FormatFloat(r.DegradedFrac, 'f', 4, 64),
			strconv.FormatInt(r.Wall.Nanoseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
