package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed BENCH_BASELINE.json shape: benchmark name
// (with the -GOMAXPROCS suffix stripped, so runs from machines with
// different core counts compare) to the median ns/op of the -count
// repeats, plus each benchmark's observed relative sample spread
// ((max-min)/median). The spread records how noisy a benchmark was
// when the baseline was taken; the gate widens that benchmark's
// tolerance by it, so stable benchmarks are held to the tight
// threshold while inherently jittery ones don't flake.
type Baseline struct {
	NsPerOp map[string]float64 `json:"ns_per_op"`
	Spread  map[string]float64 `json:"spread,omitempty"`
	// AllocsPerOp is the median allocations per op recorded with the
	// baseline. Unlike ns/op it is deterministic per machine, so the
	// gate compares it directly, without calibration or spread.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// MemBytes is the median of each custom memory metric benchmarks
	// report via testing.B.ReportMetric (units containing "bytes/" —
	// bytes/vertex, bytes/job, rss-bytes/vertex, ...), keyed
	// "<benchmark> <unit>". Heap-accounted metrics are gated raw like
	// allocs/op; metrics with an "rss-" unit prefix are recorded and
	// reported but never fail the gate, since OS paging is not
	// deterministic.
	MemBytes map[string]float64 `json:"mem_bytes,omitempty"`
}

// Samples holds the per-benchmark measurements of one `go test -bench`
// run: ns/op always, allocs/op when the run reported allocations
// (b.ReportAllocs or -benchmem).
type Samples struct {
	Ns     map[string][]float64
	Allocs map[string][]float64
	// Mem collects custom memory metrics, keyed "<benchmark> <unit>".
	Mem map[string][]float64
}

// ParseBench extracts ns/op and allocs/op samples per benchmark from
// `go test -bench` text output. Sub-benchmarks keep their full slash
// path; the trailing -GOMAXPROCS suffix is stripped. Repeated runs
// (-count>1) append.
func ParseBench(r io.Reader) (*Samples, error) {
	samples := &Samples{
		Ns:     make(map[string][]float64),
		Allocs: make(map[string][]float64),
		Mem:    make(map[string][]float64),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines look like:
		//   BenchmarkLODMatch/High_pruned-8  100  123456 ns/op  500 B/op  3 allocs/op
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var nsPerOp, allocsPerOp float64
		foundNs, foundAllocs := false, false
		mem := map[string]float64{}
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				nsPerOp, foundNs = v, true
			case unit == "allocs/op":
				allocsPerOp, foundAllocs = v, true
			case strings.Contains(unit, "bytes/"):
				// Custom memory metrics from b.ReportMetric:
				// bytes/vertex, rss-bytes/vertex, bytes/job, ...
				mem[unit] = v
			}
		}
		if !foundNs {
			continue
		}
		name := stripProcSuffix(fields[0])
		samples.Ns[name] = append(samples.Ns[name], nsPerOp)
		if foundAllocs {
			samples.Allocs[name] = append(samples.Allocs[name], allocsPerOp)
		}
		for unit, v := range mem {
			key := name + " " + unit
			samples.Mem[key] = append(samples.Mem[key], v)
		}
	}
	return samples, sc.Err()
}

// Medians reduces each benchmark's samples to the median: unlike the
// minimum it is robust to lucky-fast outliers (a single quiet-machine
// sample would otherwise set an unrepeatable baseline), and unlike the
// mean it ignores slow tails.
func Medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, s := range samples {
		out[name] = median(s)
	}
	return out
}

// Spreads computes each benchmark's relative sample spread,
// (max-min)/median — 0 for a single sample.
func Spreads(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, s := range samples {
		m := median(s)
		if len(s) < 2 || m <= 0 {
			out[name] = 0
			continue
		}
		lo, hi := s[0], s[0]
		for _, v := range s[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		out[name] = (hi - lo) / m
	}
	return out
}

// stripProcSuffix removes the trailing -N GOMAXPROCS marker go test
// appends to benchmark names ("BenchmarkX/sub-8" -> "BenchmarkX/sub").
// On GOMAXPROCS=1 machines go test omits the marker entirely, so a
// numeric tail might instead be part of the sub-benchmark name (e.g.
// "spans-1000"); only values that look like CPU counts are stripped.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 || n > 256 {
		return name
	}
	return name[:i]
}

func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.NsPerOp) == 0 {
		return nil, fmt.Errorf("%s: empty baseline", path)
	}
	return &b, nil
}

func WriteBaseline(path string, samples *Samples) error {
	b := Baseline{
		NsPerOp:     Medians(samples.Ns),
		Spread:      roundMap(Spreads(samples.Ns)),
		AllocsPerOp: Medians(samples.Allocs),
		MemBytes:    Medians(samples.Mem),
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// roundMap trims spreads to three decimals so the committed JSON stays
// readable and diffs stay small.
func roundMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(int(v*1000+0.5)) / 1000
	}
	return out
}

// Rows whose baseline is under smallRowNs per op get an absolute floor on
// the time gate: they fail only when their calibrated slowdown is also
// more than timeFloorNs per op. On a shared 2-core VM, sub-microsecond
// benchmarks (planner probes, an idle scheduling cycle) move by tens of
// percent between runs of one binary, so the ratio gate alone fails a
// different one of them on every run; a regression of a microsecond or
// more per op still fails. Rows at or above smallRowNs keep the plain
// ratio gate.
const (
	smallRowNs  = 50_000
	timeFloorNs = 1_000
)

// Row is one benchmark's comparison outcome.
type Row struct {
	Name       string
	BaseNs     float64
	CurrentNs  float64
	Ratio      float64 // current/base
	Calibrated float64 // ratio normalized by the machine-speed median
	Limit      float64 // calibrated ratio above which this row fails
	Gated      bool
	Regressed  bool

	// Allocation gate: deterministic per machine, compared raw. HasAllocs
	// is set when both the baseline and the current run report allocs/op
	// for this benchmark; without either side the row is alloc-ungated.
	HasAllocs      bool
	BaseAllocs     float64
	CurrentAllocs  float64
	AllocRegressed bool
}

// MemRow is one memory metric's comparison outcome. Memory metrics are
// byte counts per logical unit (vertex, job) reported via ReportMetric;
// heap-accounted ones are gated raw like allocs/op, rss-* ones are
// informational only.
type MemRow struct {
	Key       string // "<benchmark> <unit>"
	Base      float64
	Current   float64
	Ratio     float64
	Gated     bool
	Regressed bool
}

// Report is the full comparison: per-benchmark rows plus the median
// machine-speed factor used for calibration.
type Report struct {
	Rows      []Row
	MemRows   []MemRow
	Median    float64
	Threshold float64
	Missing   []string // gated baseline entries absent from the current run
}

// Compare calibrates current against baseline and flags gated
// regressions. Every benchmark present in both sets feeds the median;
// only benchmarks matching a gate prefix can fail the build. A gated
// row fails its time gate when its calibrated ns/op ratio exceeds
// 1 + threshold + the benchmark's recorded baseline spread (and, below
// smallRowNs, its calibrated slowdown exceeds timeFloorNs), and its
// allocation gate when allocs/op grew by more than threshold AND by
// more than two allocations (the absolute floor keeps tiny counts,
// where one allocation is a huge ratio, from flaking). Benchmarks with
// no allocs/op on either side — pre-migration baselines or runs without
// -benchmem/ReportAllocs — are alloc-ungated.
func Compare(base *Baseline, currentSamples *Samples, gates []string, threshold float64) (*Report, error) {
	current := Medians(currentSamples.Ns)
	currentAllocs := Medians(currentSamples.Allocs)
	var ratios []float64
	var rows []Row
	for name, cur := range current {
		b, ok := base.NsPerOp[name]
		if !ok || b <= 0 {
			continue
		}
		r := cur / b
		ratios = append(ratios, r)
		row := Row{
			Name: name, BaseNs: b, CurrentNs: cur, Ratio: r,
			Limit: 1 + threshold + base.Spread[name],
			Gated: gated(name, gates),
		}
		if ba, ok := base.AllocsPerOp[name]; ok {
			if ca, ok := currentAllocs[name]; ok {
				row.HasAllocs = true
				row.BaseAllocs = ba
				row.CurrentAllocs = ca
				row.AllocRegressed = row.Gated &&
					ca > ba*(1+threshold) && ca-ba > 2
			}
		}
		rows = append(rows, row)
	}
	if len(ratios) == 0 {
		return nil, fmt.Errorf("no overlap between baseline and current results")
	}
	med := median(ratios)
	if med <= 0 {
		return nil, fmt.Errorf("degenerate median ratio %v", med)
	}
	for i := range rows {
		r := &rows[i]
		r.Calibrated = r.Ratio / med
		r.Regressed = r.Gated && r.Calibrated > r.Limit &&
			(r.BaseNs >= smallRowNs || r.CurrentNs/med-r.BaseNs > timeFloorNs)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })

	// Memory metrics: byte counts per logical unit from ReportMetric,
	// keyed "<benchmark> <unit>". Heap-accounted metrics are deterministic
	// per build, so they gate raw like allocs/op, with a 64-byte absolute
	// floor so rounding jitter on small structs can't flake. Metrics whose
	// unit starts with "rss-" depend on OS paging and are reported but
	// never fail.
	currentMem := Medians(currentSamples.Mem)
	var memRows []MemRow
	for key, cur := range currentMem {
		b, ok := base.MemBytes[key]
		if !ok || b <= 0 {
			continue
		}
		row := MemRow{
			Key: key, Base: b, Current: cur, Ratio: cur / b,
			Gated: gated(key, gates) && !rssMetric(key),
		}
		row.Regressed = row.Gated && cur > b*(1+threshold) && cur-b > 64
		memRows = append(memRows, row)
	}
	sort.Slice(memRows, func(i, j int) bool { return memRows[i].Key < memRows[j].Key })

	var missing []string
	for name := range base.NsPerOp {
		if _, ok := current[name]; !ok && gated(name, gates) {
			missing = append(missing, name)
		}
	}
	for key := range base.MemBytes {
		if _, ok := currentMem[key]; !ok && gated(key, gates) && !rssMetric(key) {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	return &Report{Rows: rows, MemRows: memRows, Median: med, Threshold: threshold, Missing: missing}, nil
}

// rssMetric reports whether a mem key's unit part carries the "rss-"
// prefix ("BenchmarkGraphMemory/v100k rss-bytes/vertex").
func rssMetric(key string) bool {
	i := strings.LastIndex(key, " ")
	return i >= 0 && strings.HasPrefix(key[i+1:], "rss-")
}

func gated(name string, gates []string) bool {
	for _, g := range gates {
		if strings.HasPrefix(name, g) {
			return true
		}
	}
	return false
}

// ScaleGate is a raw within-run ratio gate: the median ns/op of Slow
// divided by the median ns/op of Fast must be at least Min. Unlike the
// calibrated baseline comparison it needs no history — both measurements
// come from the same run on the same machine, so machine speed cancels
// out. It gates scaling claims (e.g. the 8-shard scheduler must be >= 3x
// the 1-shard one) rather than point regressions.
type ScaleGate struct {
	Slow string  // benchmark expected to be slower per op
	Fast string  // benchmark expected to be faster per op
	Min  float64 // minimum tolerated Slow/Fast ns-per-op ratio
}

// ParseScaleGates parses comma-separated "slow:fast:min" specs
// ("BenchmarkShardedThroughput/s1:BenchmarkShardedThroughput/s8:3.0").
// Colons cannot appear in benchmark names, so the split is unambiguous.
func ParseScaleGates(s string) ([]ScaleGate, error) {
	var out []ScaleGate
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("scale gate %q: want slow:fast:min", part)
		}
		min, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || min <= 0 {
			return nil, fmt.Errorf("scale gate %q: bad minimum %q", part, fields[2])
		}
		out = append(out, ScaleGate{Slow: fields[0], Fast: fields[1], Min: min})
	}
	return out, nil
}

// ScaleRow is one scale gate's outcome.
type ScaleRow struct {
	Gate    ScaleGate
	SlowNs  float64
	FastNs  float64
	Speedup float64
	Failed  bool
}

// CheckScaleGates evaluates raw ratio gates against one run's samples.
// A gate whose benchmarks are missing from the run fails — a silently
// skipped scaling gate would read as a pass.
func CheckScaleGates(samples *Samples, gates []ScaleGate) []ScaleRow {
	medians := Medians(samples.Ns)
	out := make([]ScaleRow, 0, len(gates))
	for _, g := range gates {
		row := ScaleRow{Gate: g, SlowNs: medians[g.Slow], FastNs: medians[g.Fast]}
		if row.SlowNs <= 0 || row.FastNs <= 0 {
			row.Failed = true
		} else {
			row.Speedup = row.SlowNs / row.FastNs
			row.Failed = row.Speedup < g.Min
		}
		out = append(out, row)
	}
	return out
}

// PrintScaleRows renders scale-gate outcomes; returns true when any
// gate failed.
func PrintScaleRows(w io.Writer, rows []ScaleRow) bool {
	failed := false
	for _, r := range rows {
		if r.SlowNs <= 0 || r.FastNs <= 0 {
			fmt.Fprintf(w, "scale gate %s / %s: MISSING benchmark rows\n", r.Gate.Slow, r.Gate.Fast)
			failed = true
			continue
		}
		verdict := "ok"
		if r.Failed {
			verdict = "FAILED"
			failed = true
		}
		fmt.Fprintf(w, "scale gate %s / %s: %.2fx (gate: >= %.2fx) %s\n",
			r.Gate.Slow, r.Gate.Fast, r.Speedup, r.Gate.Min, verdict)
	}
	return failed
}

func (r *Report) Failed() bool {
	if len(r.Missing) > 0 {
		return true
	}
	for _, row := range r.Rows {
		if row.Regressed || row.AllocRegressed {
			return true
		}
	}
	for _, row := range r.MemRows {
		if row.Regressed {
			return true
		}
	}
	return false
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchdiff: machine-speed median ratio %.3f, gate threshold +%.0f%% (+ per-benchmark baseline spread; rows under %d ns/op also need > %d ns/op; allocs/op gated raw)\n",
		r.Median, r.Threshold*100, smallRowNs, timeFloorNs)
	fmt.Fprintf(&sb, "%-44s %14s %14s %9s %9s %7s %12s %12s  %s\n",
		"benchmark", "base ns/op", "curr ns/op", "ratio", "calib", "limit", "base allocs", "curr allocs", "verdict")
	for _, row := range r.Rows {
		verdict := "-"
		switch {
		case row.Regressed && row.AllocRegressed:
			verdict = "REGRESSED (time, allocs)"
		case row.Regressed:
			verdict = "REGRESSED (time)"
		case row.AllocRegressed:
			verdict = "REGRESSED (allocs)"
		case row.Gated:
			verdict = "ok"
		}
		baseAllocs, currAllocs := "-", "-"
		if row.HasAllocs {
			baseAllocs = strconv.FormatFloat(row.BaseAllocs, 'f', 0, 64)
			currAllocs = strconv.FormatFloat(row.CurrentAllocs, 'f', 0, 64)
		}
		fmt.Fprintf(&sb, "%-44s %14.0f %14.0f %9.3f %9.3f %7.3f %12s %12s  %s\n",
			row.Name, row.BaseNs, row.CurrentNs, row.Ratio, row.Calibrated, row.Limit,
			baseAllocs, currAllocs, verdict)
	}
	if len(r.MemRows) > 0 {
		fmt.Fprintf(&sb, "%-44s %14s %14s %9s  %s\n",
			"memory metric", "base bytes", "curr bytes", "ratio", "verdict")
		for _, row := range r.MemRows {
			verdict := "-"
			switch {
			case row.Regressed:
				verdict = "REGRESSED (mem)"
			case row.Gated:
				verdict = "ok"
			}
			fmt.Fprintf(&sb, "%-44s %14.1f %14.1f %9.3f  %s\n",
				row.Key, row.Base, row.Current, row.Ratio, verdict)
		}
	}
	for _, name := range r.Missing {
		fmt.Fprintf(&sb, "%-44s MISSING from current run (gated)\n", name)
	}
	return sb.String()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
