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

func TestRecoverySmallScale(t *testing.T) {
	cfg := RecoveryConfig{Nodes: 4, Cores: 4, Jobs: 48, Duration: 50, Points: 4}
	results, err := RunRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != cfg.Points {
		t.Fatalf("rows = %d", len(results))
	}
	for i, r := range results {
		if r.Records <= 0 || r.LogBytes <= 0 || r.SnapshotBytes <= 0 {
			t.Fatalf("point %d empty: %+v", i, r)
		}
		if r.ReplayWall <= 0 || r.SnapWall <= 0 {
			t.Fatalf("point %d unmeasured: %+v", i, r)
		}
		// Cuts inside one large command collapse onto the same commit
		// boundary, so require non-decreasing, not strictly increasing.
		if i > 0 && r.Records < results[i-1].Records {
			t.Fatalf("log lengths decreased: %d then %d", results[i-1].Records, r.Records)
		}
	}
	// The headline property — replay cost scales with the log while
	// snapshot recovery stays flat — is timing-noise-prone at this
	// scale, so assert only the sweep's shape: the final point replays
	// several times the records of the first.
	first, last := results[0], results[len(results)-1]
	if last.Records < 4*first.Records {
		t.Fatalf("sweep too shallow: %d to %d records", first.Records, last.Records)
	}

	var buf bytes.Buffer
	PrintRecovery(&buf, results, cfg)
	if !strings.Contains(buf.String(), "with_snapshot") {
		t.Fatalf("table: %s", buf.String())
	}
	buf.Reset()
	if err := WriteRecoveryCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+cfg.Points {
		t.Fatalf("recovery csv lines = %d\n%s", lines, buf.String())
	}
	if !strings.HasPrefix(buf.String(), "records,log_bytes,replay_ns,snapshot_ns,snapshot_bytes") {
		t.Fatalf("recovery header: %s", buf.String())
	}
}

func TestChaosSmallScale(t *testing.T) {
	cfg := DefaultChaos()
	cfg.Jobs = 40
	cfg.Intensities = []float64{0, 0.3}
	results, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfg.Intensities) {
		t.Fatalf("rows = %d", len(results))
	}
	calm, hostile := results[0], results[1]
	if calm.Clean != cfg.Jobs || calm.Quarantined != 0 || calm.InvalidRejects != 0 {
		t.Fatalf("intensity 0 not calm: %+v", calm)
	}
	// The headline contract: every clean job survives at every intensity.
	for _, r := range results {
		if r.SurvivalRate != 1.0 {
			t.Errorf("intensity %.2f: survival %.3f (%d of %d clean)",
				r.Intensity, r.SurvivalRate, r.Survived, r.Clean)
		}
		if r.Cycles <= 0 {
			t.Errorf("intensity %.2f: no cycles recorded", r.Intensity)
		}
	}
	// At 0.3 the plan must actually have poisoned something, and the
	// defenses must have absorbed it one way or the other.
	if hostile.Clean >= cfg.Jobs {
		t.Fatalf("intensity 0.3 poisoned nothing")
	}
	if hostile.Quarantined+hostile.InvalidRejects == 0 {
		t.Fatalf("intensity 0.3 absorbed no offenders: %+v", hostile)
	}

	var buf bytes.Buffer
	PrintChaos(&buf, results, cfg)
	if !strings.Contains(buf.String(), "quarantined") {
		t.Fatalf("table: %s", buf.String())
	}
	buf.Reset()
	if err := WriteChaosCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 1+len(results) {
		t.Fatalf("chaos csv lines = %d\n%s", lines, buf.String())
	}
	if !strings.HasPrefix(buf.String(), "intensity,clean,survived,survival_rate") {
		t.Fatalf("chaos header: %s", buf.String())
	}
}

func TestMemScaleSmallScale(t *testing.T) {
	results, err := RunMemScale([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Vertices <= 0 || r.Build <= 0 {
			t.Errorf("racks=%d: bad row %+v", r.Racks, r)
		}
		// Heap growth per vertex should be positive and nowhere near the
		// pre-slab 2538 B/vertex footprint even at toy scale.
		if r.BytesPerVertex <= 0 || r.BytesPerVertex > 2538 {
			t.Errorf("racks=%d: bytes/vertex = %v", r.Racks, r.BytesPerVertex)
		}
	}
	if results[1].Vertices <= results[0].Vertices {
		t.Errorf("vertex counts did not grow: %d then %d",
			results[0].Vertices, results[1].Vertices)
	}
	var buf bytes.Buffer
	PrintMemScale(&buf, results)
	if !strings.Contains(buf.String(), "B/vertex") {
		t.Fatalf("table: %s", buf.String())
	}
	buf.Reset()
	if err := WriteMemScaleCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "racks,vertices,build_ns,heap_bytes,bytes_per_vertex,rss_bytes,rss_bytes_per_vertex") {
		t.Fatalf("memscale header: %s", buf.String())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 { // header + 2 rows
		t.Fatalf("memscale csv lines = %d", lines)
	}
}

func TestShardScaleSmallScale(t *testing.T) {
	cfg := ShardScaleConfig{Racks: 2, Jobs: 24, MaxNodes: 4, Seed: 7, Shards: []int{1, 2}}
	results, err := RunShardScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 { // {FCFS, EASY} x {1, 2}
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Completed != cfg.Jobs {
			t.Errorf("%s/s%d: completed = %d", r.Policy, r.Shards, r.Completed)
		}
		if r.Unroutable != 0 {
			t.Errorf("%s/s%d: unroutable = %d", r.Policy, r.Shards, r.Unroutable)
		}
		if r.JobsPerSec <= 0 || r.Util <= 0 || r.Util > 1 {
			t.Errorf("%s/s%d: bad row %+v", r.Policy, r.Shards, r)
		}
	}
	for _, i := range []int{0, 2} { // per-policy 1-shard baselines
		if results[i].Shards != 1 || results[i].Speedup != 1 ||
			results[i].UtilDelta != 0 || results[i].WaitDelta != 0 {
			t.Errorf("baseline row %d: %+v", i, results[i])
		}
	}
	var buf bytes.Buffer
	PrintShardScale(&buf, results, cfg)
	if !strings.Contains(buf.String(), "Δutil(pp)") {
		t.Fatalf("table: %s", buf.String())
	}
	buf.Reset()
	if err := WriteShardScaleCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "policy,shards,completed,rerouted,steals,unroutable,wall_ns,jobs_per_sec,speedup,util,util_delta_pp,mean_wait_s,wait_delta_s") {
		t.Fatalf("shardscale header: %s", buf.String())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 { // header + 4 rows
		t.Fatalf("shardscale csv lines = %d", lines)
	}
}

func TestShardChaosSmallScale(t *testing.T) {
	cfg := ShardChaosConfig{
		Racks: 4, Jobs: 150, MaxNodes: 16, Seed: 2023, ChaosSeed: 1,
		Shards: 4, Intensities: []float64{0, 0.25},
	}
	results, err := RunShardChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	control, hit := results[0], results[1]
	if control.Killed != 0 || control.Touched != 0 || control.WaitPenalty != 0 ||
		control.Completed != cfg.Jobs || control.Survival != 1 || control.CleanSurvival != 1 {
		t.Fatalf("control row: %+v", control)
	}
	if hit.Killed < 1 || hit.Failures < 1 {
		t.Fatalf("no shard failed at 0.25: %+v", hit)
	}
	if hit.Recoveries < 1 {
		t.Fatalf("bounded fault window must reabsorb: %+v", hit)
	}
	if hit.Drained+hit.Evicted == 0 || hit.Touched == 0 {
		t.Fatalf("failover moved no jobs: %+v", hit)
	}
	if hit.CleanSurvival != 1 {
		t.Fatalf("clean jobs must all complete: %+v", hit)
	}
	if int64(hit.Completed)+hit.Lost != int64(cfg.Jobs) {
		t.Fatalf("jobs unaccounted for: completed=%d lost=%d", hit.Completed, hit.Lost)
	}

	// The sweep must lead with its control: the window bound and the
	// wait-penalty baseline come from it.
	if _, err := RunShardChaos(ShardChaosConfig{
		Racks: 2, Jobs: 8, MaxNodes: 4, Shards: 2, Intensities: []float64{0.25},
	}); err == nil {
		t.Fatal("control-less sweep accepted")
	}

	var buf bytes.Buffer
	PrintShardChaos(&buf, results, cfg)
	if !strings.Contains(buf.String(), "Δwait(s)") {
		t.Fatalf("table: %s", buf.String())
	}
	buf.Reset()
	if err := WriteShardChaosCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "intensity,killed,failures,recoveries,drained,evicted,lost,touched,completed,survival,clean_survival,mean_wait_s,wait_penalty_s,wall_ns") {
		t.Fatalf("shardchaos header: %s", buf.String())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 { // header + 2 rows
		t.Fatalf("shardchaos csv lines = %d", lines)
	}
}
