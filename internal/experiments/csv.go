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
