package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestLODSmallScale(t *testing.T) {
	// 2 racks = 36 nodes; each node hosts 4 jobs -> 144 matches per
	// config.
	results, err := RunLOD(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Matches != 144 {
			t.Errorf("%s: matches = %d, want 144", r.Config, r.Matches)
		}
		if r.Total <= 0 {
			t.Errorf("%s: zero total", r.Config)
		}
	}
	// Expected shapes: pruning helps at High LOD; coarser LODs are
	// cheaper than High without pruning. Each config fills in a few
	// milliseconds, so one GC pause or preemption can flip a single
	// comparison: compare the fastest of several fills of each config.
	best := map[string]time.Duration{}
	for rep := 0; ; rep++ {
		for _, r := range results {
			if b, ok := best[r.Config]; !ok || r.Total < b {
				best[r.Config] = r.Total
			}
		}
		if rep == 4 {
			break
		}
		if results, err = RunLOD(2); err != nil {
			t.Fatal(err)
		}
	}
	if best["High Prune"] > best["High"] {
		t.Errorf("pruning slower at High: %v > %v", best["High Prune"], best["High"])
	}
	if best["Low"] > best["High"] {
		t.Errorf("Low slower than High: %v > %v", best["Low"], best["High"])
	}
	var buf bytes.Buffer
	PrintLOD(&buf, results, 2)
	if !strings.Contains(buf.String(), "High Prune") {
		t.Fatalf("table: %s", buf.String())
	}
}

func TestPlannerPerfSmall(t *testing.T) {
	results, err := RunPlannerPerf([]int{100, 1000}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.PerQuery <= 0 || r.PerQuery > time.Millisecond {
			t.Errorf("%s@%d: per-query %v out of range", r.Test, r.Spans, r.PerQuery)
		}
	}
	var buf bytes.Buffer
	PrintPlannerPerf(&buf, results)
	if !strings.Contains(buf.String(), "EarliestAt") {
		t.Fatalf("table: %s", buf.String())
	}
}

func TestPrepopulateDeterministic(t *testing.T) {
	p1, err := PrepopulatePlanner(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PrepopulatePlanner(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p1.PointCount() != p2.PointCount() || p1.SpanCount() != p2.SpanCount() {
		t.Fatal("prepopulation not deterministic")
	}
	if p1.SpanCount() != 500 {
		t.Fatalf("spans = %d", p1.SpanCount())
	}
}

func TestVarAwareSmallScale(t *testing.T) {
	cfg := VarAwareConfig{
		Racks: 4, NodesPerRack: 16, CoresPerNode: 8,
		Jobs: 30, MaxJobNodes: 16, Seed: 11,
	}
	hist, runs, err := RunVarAware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range hist {
		total += n
	}
	if total != 64 {
		t.Fatalf("class histogram total = %d", total)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Immediate+r.Reserved != cfg.Jobs {
			t.Errorf("%s: immediate %d + reserved %d != %d",
				r.Policy, r.Immediate, r.Reserved, cfg.Jobs)
		}
		placed := 0
		for _, n := range r.Fom {
			placed += n
		}
		if placed != cfg.Jobs {
			t.Errorf("%s: fom histogram covers %d jobs", r.Policy, placed)
		}
	}
	// The headline claim: variation-aware concentrates jobs at fom=0.
	va, hi := runs[2], runs[0]
	if va.Fom[0] < hi.Fom[0] {
		t.Errorf("variation-aware fom=0 (%d) worse than HighestID (%d)", va.Fom[0], hi.Fom[0])
	}
	var buf bytes.Buffer
	PrintClassHistogram(&buf, hist)
	PrintVarAware(&buf, runs)
	out := buf.String()
	for _, want := range []string{"Variation-aware", "fom=0", "class 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSplitAvg(t *testing.T) {
	first, rest := splitAvg([]time.Duration{10, 20, 30, 40}, 2)
	if first != 15 || rest != 35 {
		t.Fatalf("splitAvg = %v, %v", first, rest)
	}
	if f, r := splitAvg(nil, 3); f != 0 || r != 0 {
		t.Fatalf("empty splitAvg = %v, %v", f, r)
	}
	if f, r := splitAvg([]time.Duration{8}, 5); f != 8 || r != 0 {
		t.Fatalf("short splitAvg = %v, %v", f, r)
	}
}

func TestCSVEmitters(t *testing.T) {
	lod, err := RunLOD(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLODCSV(&buf, lod); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 9 { // header + 8 configs
		t.Fatalf("lod csv lines = %d\n%s", lines, buf.String())
	}
	if !strings.HasPrefix(buf.String(), "config,vertices,matches,total_ns,per_match_ns") {
		t.Fatalf("lod header: %s", buf.String())
	}

	pl, err := RunPlannerPerf([]int{100}, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WritePlannerCSV(&buf, pl); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 { // header + 3 tests
		t.Fatalf("planner csv lines = %d", lines)
	}

	cfg := VarAwareConfig{Racks: 2, NodesPerRack: 4, CoresPerNode: 4, Jobs: 6, MaxJobNodes: 4, Seed: 5}
	hist, runs, err := RunVarAware(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteClassCSV(&buf, hist); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "class,nodes") {
		t.Fatalf("class header: %s", buf.String())
	}
	buf.Reset()
	if err := WriteVarAwareCSV(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 { // header + 3 policies
		t.Fatalf("varaware csv lines = %d\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), "Variation-aware") {
		t.Fatalf("varaware csv: %s", buf.String())
	}
	buf.Reset()
	if err := WritePerJobCSV(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+3*cfg.Jobs {
		t.Fatalf("perjob csv lines = %d", lines)
	}
}
