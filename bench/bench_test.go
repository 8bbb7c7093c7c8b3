package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"fluxion/internal/grug"
	"fluxion/internal/sched"
	"fluxion/internal/simcli"
)

// testDiv shortens every workload's trace for the smoke tests.
const testDiv = 10

func TestMain(m *testing.M) {
	probeBudget = 20 * time.Millisecond
	os.Exit(m.Run())
}

// scratch is the tests' WAL directory, inside the package directory like
// the benchmark's own.
func scratch(t *testing.T) string {
	t.Helper()
	dir, cleanup, err := scratchDir()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return dir
}

// benchmarkJSON is the contract file at the root of the repo.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the program's
// own tables to the same names and units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
		if e := b.EndToEnd[i]; e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", e.Name, e.Bound, e.Better)
		}
	}
	if len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
}

func TestGenerate(t *testing.T) {
	a, b := generate(300, 7, true, true), generate(300, 7, true, true)
	if a.sha256 != b.sha256 {
		t.Fatal("the same seed gave two traces")
	}
	if c := generate(300, 8, true, true); c.sha256 == a.sha256 {
		t.Fatal("two seeds gave the same trace")
	}
	if len(a.faults) != 300/faultsPerJobs {
		t.Fatalf("%d faults for 300 jobs", len(a.faults))
	}
	last := int64(0)
	for _, j := range a.jobs {
		if j.Nodes < 1 || j.Nodes > 448 || j.Duration < runtimeMin || j.Duration > runtimeMax || j.Submit < last {
			t.Fatalf("job out of shape: %+v", j)
		}
		last = j.Submit
	}
	downUntil := map[int]int64{}
	for _, f := range a.faults {
		if f.Up <= f.Down || f.Down < downUntil[f.Node] {
			t.Fatalf("fault overlaps an earlier outage of its node: %+v", f)
		}
		downUntil[f.Node] = f.Up
	}
	// The three stream-easy variants must replay one trace.
	easy, _ := findWorkload("stream-easy")
	for _, name := range []string{"stream-easy-wal", "stream-easy-shard2"} {
		w, _ := findWorkload(name)
		if w.input(3).sha256 != easy.input(3).sha256 {
			t.Errorf("%s does not replay stream-easy's trace", name)
		}
	}
}

var digestLine = regexp.MustCompile(`decision_digest ([0-9a-f]{16}), retry_exhausted`)

// TestEndToEndSmoke runs every workload's untraced measurement on a
// short trace: every end-to-end metric exactly once, nothing failed, and
// the same decisions when run again.
func TestEndToEndSmoke(t *testing.T) {
	tmp := scratch(t)
	for _, w := range workloads {
		w := w.scaled(testDiv)
		t.Run(w.name, func(t *testing.T) {
			// The workloads with goroutines or faults under them run
			// twice, to show their decisions do not depend on timing.
			runs := 1
			if w.shards > 0 || w.faults {
				runs = 2
			}
			var info [2]bytes.Buffer
			var res [2]result
			for i := 0; i < runs; i++ {
				var err error
				if res[i], err = endToEnd(w, 5, 0, tmp, &info[i]); err != nil {
					t.Fatal(err)
				}
			}
			r := res[0]
			if !r.Correct || r.Failed != 0 || r.Attempted != subTraces*w.jobs {
				t.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
			}
			if len(r.Metrics) != len(endToEndDefs) {
				t.Errorf("%d metrics reported, want %d", len(r.Metrics), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				// A trace this short may not fill the machine, so nobody waits.
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value < 0 || (m.Value == 0 && d.name != "sim_mean_wait_s") {
					t.Errorf("%s = %+v (reported: %v)", d.name, m, ok)
				}
			}
			if runs == 2 {
				for _, name := range []string{"sim_mean_wait_s", "sim_util_pct"} {
					if res[0].Metrics[name] != res[1].Metrics[name] {
						t.Errorf("%s changed between two runs: %v vs %v", name, res[0].Metrics[name], res[1].Metrics[name])
					}
				}
				d0, d1 := digestLine.FindStringSubmatch(info[0].String()), digestLine.FindStringSubmatch(info[1].String())
				if d0 == nil || d1 == nil || d0[1] != d1[1] {
					t.Errorf("decision digest changed between two runs: %v vs %v", d0, d1)
				}
			}
			var line bytes.Buffer
			if err := r.print(&line); err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line.Bytes(), &back); err != nil || len(back) != 4 {
				t.Errorf("result line is not the four-key object: %v %s", err, line.String())
			}
		})
	}
}

// TestPerLayerSmoke runs every workload's traced measurement on a short
// trace: every per-layer metric exactly once, the spans covering the
// replay, the metrics of the layers a workload uses present and those of
// the layers it does not use zero.
func TestPerLayerSmoke(t *testing.T) {
	tmp := scratch(t)
	for _, w := range workloads {
		w := w.scaled(testDiv)
		t.Run(w.name, func(t *testing.T) {
			traceFile := filepath.Join(tmp, w.name+".trace.json")
			var info bytes.Buffer
			r, err := perLayer(w, 5, tmp, &info, traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || len(r.Metrics) != len(perLayerDefs) {
				t.Fatalf("correct=%v failed=%d, %d metrics for %d names", r.Correct, r.Failed, len(r.Metrics), len(perLayerDefs))
			}
			if c := r.Metrics["driver.span_coverage_frac"].Value; c < 0.95 {
				t.Errorf("spans cover %.3f of the replay wall, want ≥ 0.95", c)
			}
			if !strings.Contains(info.String(), "residual 0.0000 s") {
				t.Errorf("ledger rows do not add up to the replay wall:\n%s", info.String())
			}
			used := func(prefix string) bool {
				switch prefix {
				case "shard":
					return w.shards > 0
				case "durable", "wal":
					return w.wal
				case "planner":
					return w.policy == sched.Conservative
				}
				return true
			}
			for _, name := range []string{"sched.cycles", "sched.match_success_ratio", "traverser.match_us_p50", "traverser.match_full_us_p50",
				"resgraph.build_ms", "resgraph.markdown_us_p50", "jobspec.compile_us_p50",
				"shard.routed", "shard.step_ms_p50", "shard.speedup_vs_flat", "durable.recovery_s", "durable.snapshot_ms_p50",
				"wal.bytes_per_job", "wal.records_replayed", "wal.append_ns_p50", "planner.add_ns_p50", "planner.avail_first_ns_p50"} {
				prefix, _, _ := strings.Cut(name, ".")
				if v := r.Metrics[name].Value; used(prefix) && v <= 0 {
					t.Errorf("%s = %v on a workload that uses its layer", name, v)
				} else if !used(prefix) && v != 0 {
					t.Errorf("%s = %v on a workload that does not use its layer", name, v)
				}
			}
			if (r.Metrics["traverser.reserve_us_p50"].Value > 0) != (w.policy == sched.Conservative) {
				t.Errorf("traverser.reserve_us_p50 = %v under %s", r.Metrics["traverser.reserve_us_p50"].Value, w.policy)
			}
			data, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Ph   string
					Dur  float64
				}
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Ph != "X" {
				t.Errorf("trace file is not Chrome trace-event JSON: %v (%d events)", err, len(doc.TraceEvents))
			}
		})
	}
}

// TestDriverMatchesSimcli holds the bench's copy of the event loop to
// simcli's: on the same trace both must make every job's decision alike.
func TestDriverMatchesSimcli(t *testing.T) {
	tmp := scratch(t)
	for _, name := range []string{"snap-fcfs", "stream-easy", "stream-cons", "stream-easy-shard2"} {
		w, _ := findWorkload(name)
		w = w.scaled(testDiv)
		t.Run(name, func(t *testing.T) {
			rep, err := repeat(w, 11, tmp, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := simcli.Run(simcli.Config{
				Recipe:      grug.Quartz(quartzRacks, quartzNodesPerRack, quartzCoresPerNode),
				PruneSpec:   pruneSpec,
				QueuePolicy: w.policy,
				Shards:      w.shards,
				ShardCut:    "rack",
			}, w.input(11).jobs, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.res.records {
				var job *sched.Job
				if ref.Sharded != nil {
					job, _ = ref.Sharded.Job(r.id)
				} else {
					job, _ = ref.Scheduler.Job(r.id)
				}
				if job == nil || job.State != r.state || job.StartAt != r.start || job.EndAt != r.end {
					t.Fatalf("job %d: bench decided %v@[%d,%d), simcli %+v", r.id, r.state, r.start, r.end, job)
				}
			}
		})
	}
}

// TestCheckRejects feeds the output check decisions that break each of
// its rules.
func TestCheckRejects(t *testing.T) {
	tmp := scratch(t)
	w, _ := findWorkload("faults-fcfs")
	w = w.scaled(testDiv)
	rep, err := repeat(w, 3, tmp, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := w.input(3)
	breakIt := func(name string, mutate func(rs []jobRecord)) {
		res := *rep.res
		res.records = append([]jobRecord(nil), rep.res.records...)
		mutate(res.records)
		if _, err := check(w, in, &res); err == nil {
			t.Errorf("%s: the check accepted it", name)
		}
	}
	done := 0
	for rep.res.records[done].state != sched.StateCompleted {
		done++
	}
	breakIt("start before submit", func(rs []jobRecord) { rs[done].submit = rs[done].start + 1 })
	breakIt("wrong duration", func(rs []jobRecord) { rs[done].end++ })
	breakIt("oversubscribed", func(rs []jobRecord) {
		for i := range rs {
			rs[i].start, rs[i].end, rs[i].nodes = 1<<40, 1<<40+rs[i].duration, quartzNodes
		}
	})
	res := *rep.res
	res.records = append([]jobRecord(nil), rep.res.records...)
	res.records[done].state = sched.StatePending
	if v, err := check(w, in, &res); err != nil || v.failed != rep.v.failed+1 {
		t.Errorf("a job left pending: failed=%d err=%v, want it counted as failed", v.failed, err)
	}
	plain, _ := findWorkload("snap-fcfs")
	res.records[done].state = sched.StateFailed
	if _, err := check(plain, in, &res); err == nil {
		t.Error("a failed job on a workload without faults: the check accepted it")
	}
}

// TestAA runs the A/A comparison on short traces against bounds loose
// enough to pass and tight enough to fail.
func TestAA(t *testing.T) {
	tmp := scratch(t)
	short := []workload{workloads[0].scaled(testDiv)}
	write := func(bound string) string {
		var b strings.Builder
		b.WriteString(`{"end_to_end":[`)
		for i, d := range endToEndDefs {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(`{"name":"` + d.name + `","better":"lower","bound":` + bound + `}`)
		}
		b.WriteString(`]}`)
		path := filepath.Join(tmp, "bounds-"+bound+".json")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if err := runAA(short, write("1000"), 5, 0, tmp, &out); err != nil {
		t.Errorf("A/A with loose bounds: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sim_util_pct") {
		t.Errorf("A/A table misses a metric:\n%s", out.String())
	}
	if err := runAA(short, write("0.000000001"), 5, 0, tmp, io.Discard); err == nil {
		t.Error("A/A with bounds below the clock's noise passed")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such"},
		{"-workload", "snap-fcfs", "-trace", "2"},
		{"-no-such-flag"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
