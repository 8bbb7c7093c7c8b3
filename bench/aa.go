package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the A/A comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA measures every workload end to end, twice, on the same commit
// and seed, and fails if any metric of the second set differs from the
// first by more than its bound: a benchmark whose own noise exceeds a
// bound cannot hold a later PR to it.
func runAA(workloads []workload, path string, seed int64, seconds float64, tmp string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var sets [2]map[string]metricSet
	for i := range sets {
		sets[i] = map[string]metricSet{}
		for _, w := range workloads {
			res, err := endToEnd(w, seed, seconds, tmp, out)
			if err != nil {
				return err
			}
			sets[i][w.name] = res.Metrics
		}
	}
	fmt.Fprintf(out, "\n%-20s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	over := 0
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			a, b := sets[0][w.name][e.Name].Value, sets[1][w.name][e.Name].Value
			diff := (b - a) / a
			mark := ""
			if math.Abs(diff) > e.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(out, "%-20s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.name, e.Name, a, b, 100*diff, 100*e.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metric × workload pairs differ by more than their bound between two runs of one commit", over)
	}
	return nil
}
