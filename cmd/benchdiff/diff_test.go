package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: fluxion
BenchmarkLODMatch/High-8         	     100	  12000000 ns/op	  500 B/op	 3 allocs/op
BenchmarkLODMatch/High-8         	     100	  11000000 ns/op	  500 B/op	 3 allocs/op
BenchmarkPlannerSatAt/1000-8     	 1000000	      1100 ns/op
BenchmarkSDFU-8                  	    5000	    300000 ns/op
BenchmarkGraphMemory/v100k-8     	       1	 900000000 ns/op	       548.6 bytes/vertex	       620.3 rss-bytes/vertex
PASS
ok  	fluxion	4.2s
`

func TestParseBench(t *testing.T) {
	samples, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	got := Medians(samples.Ns)
	want := map[string]float64{
		"BenchmarkLODMatch/High":     11500000, // median of the two runs
		"BenchmarkPlannerSatAt/1000": 1100,
		"BenchmarkSDFU":              300000,
		"BenchmarkGraphMemory/v100k": 900000000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
	spreads := Spreads(samples.Ns)
	if s := spreads["BenchmarkLODMatch/High"]; s <= 0.08 || s >= 0.1 {
		t.Errorf("spread = %v, want ~1e6/11.5e6", s) // (12M-11M)/11.5M
	}
	if s := spreads["BenchmarkSDFU"]; s != 0 {
		t.Errorf("single-sample spread = %v, want 0", s)
	}
	// allocs/op is captured where reported and absent where not.
	allocs := Medians(samples.Allocs)
	if allocs["BenchmarkLODMatch/High"] != 3 {
		t.Errorf("allocs = %v, want 3", allocs["BenchmarkLODMatch/High"])
	}
	if _, ok := allocs["BenchmarkPlannerSatAt/1000"]; ok {
		t.Error("allocs recorded for a benchmark that did not report them")
	}
	// Custom memory metrics are keyed "<benchmark> <unit>".
	mem := Medians(samples.Mem)
	if mem["BenchmarkGraphMemory/v100k bytes/vertex"] != 548.6 {
		t.Errorf("bytes/vertex = %v, want 548.6", mem["BenchmarkGraphMemory/v100k bytes/vertex"])
	}
	if mem["BenchmarkGraphMemory/v100k rss-bytes/vertex"] != 620.3 {
		t.Errorf("rss-bytes/vertex = %v, want 620.3", mem["BenchmarkGraphMemory/v100k rss-bytes/vertex"])
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":          "BenchmarkX",
		"BenchmarkX/sub-16":     "BenchmarkX/sub",
		"BenchmarkX/n-1-4":      "BenchmarkX/n-1",
		"BenchmarkNoSuffix":     "BenchmarkNoSuffix",
		"BenchmarkX/tail-words": "BenchmarkX/tail-words",
		// Numeric tails beyond any plausible CPU count are part of the
		// sub-benchmark name, not a GOMAXPROCS marker.
		"BenchmarkY/spans-1000": "BenchmarkY/spans-1000",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func one(m map[string]float64) *Samples {
	out := make(map[string][]float64, len(m))
	for k, v := range m {
		out[k] = []float64{v}
	}
	return &Samples{Ns: out, Allocs: make(map[string][]float64), Mem: make(map[string][]float64)}
}

// withMem attaches single-sample custom memory metrics to s.
func withMem(s *Samples, m map[string]float64) *Samples {
	for k, v := range m {
		s.Mem[k] = []float64{v}
	}
	return s
}

// withAllocs attaches single-sample allocs/op measurements to s.
func withAllocs(s *Samples, m map[string]float64) *Samples {
	for k, v := range m {
		s.Allocs[k] = []float64{v}
	}
	return s
}

// A uniformly 2x-slower machine must not trip the gate: calibration
// divides out the shared factor.
func TestCompareCalibratesMachineSpeed(t *testing.T) {
	base := &Baseline{NsPerOp: map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkPlannerSatAt":  2000,
		"BenchmarkSDFU":          3000,
	}}
	current := one(map[string]float64{
		"BenchmarkLODMatch/High": 2000,
		"BenchmarkPlannerSatAt":  4000,
		"BenchmarkSDFU":          6000,
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch", "BenchmarkPlanner"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("uniform slowdown flagged as regression:\n%s", rep)
	}
	if rep.Median != 2.0 {
		t.Fatalf("median = %v, want 2.0", rep.Median)
	}
}

// One gated benchmark regressing beyond the threshold while the rest
// hold steady must fail, and an ungated one must not. (Rows here sit
// above smallRowNs, where the time floor does not apply.)
func TestCompareFlagsRealRegression(t *testing.T) {
	base := &Baseline{NsPerOp: map[string]float64{
		"BenchmarkLODMatch/High": 100_000,
		"BenchmarkPlannerSatAt":  200_000,
		"BenchmarkSDFU":          300_000,
	}}
	current := one(map[string]float64{
		"BenchmarkLODMatch/High": 150_000, // +50%, gated -> fail
		"BenchmarkPlannerSatAt":  200_000,
		"BenchmarkSDFU":          300_000,
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch", "BenchmarkPlanner"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("regression not flagged:\n%s", rep)
	}
	for _, row := range rep.Rows {
		wantRegressed := row.Name == "BenchmarkLODMatch/High"
		if row.Regressed != wantRegressed {
			t.Errorf("%s regressed=%v, want %v", row.Name, row.Regressed, wantRegressed)
		}
	}

	// The same slowdown on the ungated BenchmarkSDFU must pass.
	current = one(map[string]float64{
		"BenchmarkLODMatch/High": 100_000,
		"BenchmarkPlannerSatAt":  200_000,
		"BenchmarkSDFU":          450_000,
	})
	rep, err = Compare(base, current, []string{"BenchmarkLODMatch", "BenchmarkPlanner"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("ungated slowdown failed the gate:\n%s", rep)
	}
}

// A benchmark whose baseline recorded a wide sample spread gets that
// much extra tolerance; one with a tight spread does not.
func TestCompareSpreadWidensLimit(t *testing.T) {
	base := &Baseline{
		NsPerOp: map[string]float64{
			"BenchmarkLODMatch/Jittery": 100_000,
			"BenchmarkLODMatch/Stable":  100_000,
			"BenchmarkSDFU":             300_000,
		},
		Spread: map[string]float64{
			"BenchmarkLODMatch/Jittery": 0.40,
			"BenchmarkLODMatch/Stable":  0.02,
		},
	}
	current := one(map[string]float64{
		"BenchmarkLODMatch/Jittery": 150_000, // +50% < 1+0.20+0.40 -> ok
		"BenchmarkLODMatch/Stable":  100_000,
		"BenchmarkSDFU":             300_000,
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("slowdown within recorded spread failed the gate:\n%s", rep)
	}
	current = one(map[string]float64{
		"BenchmarkLODMatch/Jittery": 100_000,
		"BenchmarkLODMatch/Stable":  150_000, // +50% > 1+0.20+0.02 -> fail
		"BenchmarkSDFU":             300_000,
	})
	rep, err = Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("slowdown beyond spread passed the gate:\n%s", rep)
	}
}

// A gated benchmark silently disappearing from the run (renamed or
// deleted) must fail rather than pass vacuously.
func TestCompareMissingGatedBenchmark(t *testing.T) {
	base := &Baseline{NsPerOp: map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkSDFU":          3000,
	}}
	current := one(map[string]float64{
		"BenchmarkSDFU": 3000,
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("missing gated benchmark did not fail the gate")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkLODMatch/High" {
		t.Fatalf("Missing = %v", rep.Missing)
	}
}

// Sub-50µs rows need the absolute time floor: +50% on a 600 ns row is
// 300 ns of jitter and must pass, while the same row slowing by several
// microseconds, or a 60 µs row slowing by +50%, must still fail.
func TestCompareTimeGateAbsoluteFloor(t *testing.T) {
	base := &Baseline{NsPerOp: map[string]float64{
		"BenchmarkPlannerSatAt": 600,
		"BenchmarkLODMatch/Big": 60_000,
		"BenchmarkSDFU":         3000,
		"BenchmarkSDFU2":        3000,
	}}
	gates := []string{"BenchmarkPlanner", "BenchmarkLODMatch"}
	cases := []struct {
		small, big float64
		fail       bool
	}{
		{900, 60_000, false},   // +300 ns on the small row: under the floor
		{5_000, 60_000, true},  // +4.4 µs on the small row: over it
		{600, 90_000, true},    // +50% on a row above 50 µs: no floor
		{1_500, 60_000, false}, // +150%, but only 900 ns
	}
	for _, c := range cases {
		current := one(map[string]float64{
			"BenchmarkPlannerSatAt": c.small,
			"BenchmarkLODMatch/Big": c.big,
			"BenchmarkSDFU":         3000,
			"BenchmarkSDFU2":        3000,
		})
		rep, err := Compare(base, current, gates, 0.20)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() != c.fail {
			t.Errorf("small=%v big=%v: failed=%v, want %v\n%s", c.small, c.big, rep.Failed(), c.fail, rep)
		}
	}
}

// Allocation growth on a gated benchmark fails raw — machine speed
// can't mask it — while staying within threshold passes.
func TestCompareAllocGate(t *testing.T) {
	base := &Baseline{
		NsPerOp: map[string]float64{
			"BenchmarkLODMatch/High": 1000,
			"BenchmarkSDFU":          3000,
		},
		AllocsPerOp: map[string]float64{
			"BenchmarkLODMatch/High": 100,
			"BenchmarkSDFU":          100,
		},
	}
	// +50% allocations on the gated benchmark: fail even though ns/op
	// held steady.
	current := withAllocs(one(map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkSDFU":          3000,
	}), map[string]float64{
		"BenchmarkLODMatch/High": 150,
		"BenchmarkSDFU":          150, // ungated: must not fail
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("alloc regression not flagged:\n%s", rep)
	}
	for _, row := range rep.Rows {
		want := row.Name == "BenchmarkLODMatch/High"
		if row.AllocRegressed != want {
			t.Errorf("%s AllocRegressed=%v, want %v", row.Name, row.AllocRegressed, want)
		}
	}

	// Within threshold: pass.
	current = withAllocs(one(map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkSDFU":          3000,
	}), map[string]float64{
		"BenchmarkLODMatch/High": 110,
		"BenchmarkSDFU":          100,
	})
	rep, err = Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("alloc growth within threshold failed the gate:\n%s", rep)
	}
}

// Tiny allocation counts need the absolute floor: 1 -> 3 allocations is
// +200% but only two allocations, which must not flake the gate.
func TestCompareAllocGateAbsoluteFloor(t *testing.T) {
	base := &Baseline{
		NsPerOp:     map[string]float64{"BenchmarkLODMatch/High": 1000, "BenchmarkSDFU": 3000},
		AllocsPerOp: map[string]float64{"BenchmarkLODMatch/High": 1},
	}
	current := withAllocs(one(map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkSDFU":          3000,
	}), map[string]float64{
		"BenchmarkLODMatch/High": 3,
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("two extra allocations tripped the gate:\n%s", rep)
	}
}

// Heap memory metrics gate raw like allocs; rss-prefixed ones are
// informational and never fail, however far they drift.
func TestCompareMemGate(t *testing.T) {
	base := &Baseline{
		NsPerOp: map[string]float64{
			"BenchmarkGraphMemory/v100k": 1000,
			"BenchmarkSDFU":              3000,
		},
		MemBytes: map[string]float64{
			"BenchmarkGraphMemory/v100k bytes/vertex":     1000,
			"BenchmarkGraphMemory/v100k rss-bytes/vertex": 1200,
		},
	}
	// +50% heap bytes/vertex on a gated benchmark: fail even though ns/op
	// held steady.
	current := withMem(one(map[string]float64{
		"BenchmarkGraphMemory/v100k": 1000,
		"BenchmarkSDFU":              3000,
	}), map[string]float64{
		"BenchmarkGraphMemory/v100k bytes/vertex":     1500,
		"BenchmarkGraphMemory/v100k rss-bytes/vertex": 9000, // rss: never gated
	})
	rep, err := Compare(base, current, []string{"BenchmarkGraphMemory"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("memory regression not flagged:\n%s", rep)
	}
	for _, row := range rep.MemRows {
		want := row.Key == "BenchmarkGraphMemory/v100k bytes/vertex"
		if row.Regressed != want {
			t.Errorf("%s Regressed=%v, want %v", row.Key, row.Regressed, want)
		}
	}

	// Within threshold: pass.
	current = withMem(one(map[string]float64{
		"BenchmarkGraphMemory/v100k": 1000,
		"BenchmarkSDFU":              3000,
	}), map[string]float64{
		"BenchmarkGraphMemory/v100k bytes/vertex":     1100,
		"BenchmarkGraphMemory/v100k rss-bytes/vertex": 1300,
	})
	rep, err = Compare(base, current, []string{"BenchmarkGraphMemory"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("memory growth within threshold failed the gate:\n%s", rep)
	}
}

// Small heap metrics need the 64-byte absolute floor, mirroring the
// two-allocation floor on the alloc gate.
func TestCompareMemGateAbsoluteFloor(t *testing.T) {
	base := &Baseline{
		NsPerOp:  map[string]float64{"BenchmarkGraphMemory/v100k": 1000, "BenchmarkSDFU": 3000},
		MemBytes: map[string]float64{"BenchmarkGraphMemory/v100k bytes/vertex": 40},
	}
	current := withMem(one(map[string]float64{
		"BenchmarkGraphMemory/v100k": 1000,
		"BenchmarkSDFU":              3000,
	}), map[string]float64{
		"BenchmarkGraphMemory/v100k bytes/vertex": 100, // +150% but only 60 bytes
	})
	rep, err := Compare(base, current, []string{"BenchmarkGraphMemory"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("sixty extra bytes tripped the gate:\n%s", rep)
	}
}

// A gated heap metric vanishing from the current run must fail like a
// missing benchmark; a vanished rss metric must not.
func TestCompareMemMissing(t *testing.T) {
	base := &Baseline{
		NsPerOp: map[string]float64{
			"BenchmarkGraphMemory/v100k": 1000,
			"BenchmarkSDFU":              3000,
		},
		MemBytes: map[string]float64{
			"BenchmarkGraphMemory/v100k bytes/vertex":     1000,
			"BenchmarkGraphMemory/v100k rss-bytes/vertex": 1200,
		},
	}
	current := one(map[string]float64{
		"BenchmarkGraphMemory/v100k": 1000,
		"BenchmarkSDFU":              3000,
	})
	rep, err := Compare(base, current, []string{"BenchmarkGraphMemory"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("missing gated memory metric did not fail the gate")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkGraphMemory/v100k bytes/vertex" {
		t.Fatalf("Missing = %v", rep.Missing)
	}
}

// A baseline written before allocation tracking (no allocs_per_op) must
// leave the allocation gate off rather than fail every benchmark.
func TestCompareAllocGateMigration(t *testing.T) {
	base := &Baseline{NsPerOp: map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkSDFU":          3000,
	}}
	current := withAllocs(one(map[string]float64{
		"BenchmarkLODMatch/High": 1000,
		"BenchmarkSDFU":          3000,
	}), map[string]float64{
		"BenchmarkLODMatch/High": 5000,
	})
	rep, err := Compare(base, current, []string{"BenchmarkLODMatch"}, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("pre-migration baseline tripped the alloc gate:\n%s", rep)
	}
	for _, row := range rep.Rows {
		if row.HasAllocs {
			t.Errorf("%s HasAllocs=true without baseline allocs", row.Name)
		}
	}
}

// Scale gates are raw within-run ratios: slow/fast ns-per-op must clear
// the floor, and a gate whose rows are missing fails rather than
// silently passing.
func TestScaleGates(t *testing.T) {
	gates, err := ParseScaleGates(
		"BenchmarkShardedThroughput/s1:BenchmarkShardedThroughput/s8:3.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 1 || gates[0].Min != 3.0 {
		t.Fatalf("gates = %+v", gates)
	}
	for _, bad := range []string{"a:b", "a:b:zero", "a:b:-1"} {
		if _, err := ParseScaleGates(bad); err == nil {
			t.Errorf("ParseScaleGates(%q) accepted", bad)
		}
	}

	mk := func(s1, s8 float64) *Samples {
		return &Samples{Ns: map[string][]float64{
			"BenchmarkShardedThroughput/s1": {s1},
			"BenchmarkShardedThroughput/s8": {s8},
		}}
	}
	if rows := CheckScaleGates(mk(40e6, 10e6), gates); rows[0].Failed || rows[0].Speedup != 4.0 {
		t.Fatalf("4x run failed the 3x gate: %+v", rows[0])
	}
	if rows := CheckScaleGates(mk(20e6, 10e6), gates); !rows[0].Failed {
		t.Fatalf("2x run passed the 3x gate: %+v", rows[0])
	}
	empty := &Samples{Ns: map[string][]float64{}}
	rows := CheckScaleGates(empty, gates)
	if !rows[0].Failed {
		t.Fatal("missing rows passed the gate")
	}
	var sb strings.Builder
	if !PrintScaleRows(&sb, rows) {
		t.Fatal("PrintScaleRows did not report failure")
	}
	if !strings.Contains(sb.String(), "MISSING") {
		t.Fatalf("output = %q", sb.String())
	}
}
