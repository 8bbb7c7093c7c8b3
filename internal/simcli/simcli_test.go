package simcli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluxion/internal/chaos"
	"fluxion/internal/grug"
	"fluxion/internal/sched"
	"fluxion/internal/trace"
)

func smallRecipe() *grug.Recipe { return grug.Small(1, 4, 8, 0, 0) }

func TestRunSnapshotTrace(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, Nodes: 4, CoresPerNode: 8, Duration: 100},
		{ID: 2, Nodes: 2, CoresPerNode: 8, Duration: 50},
		{ID: 3, Nodes: 8, CoresPerNode: 8, Duration: 50}, // unsatisfiable
	}
	var out bytes.Buffer
	res, err := Run(Config{Recipe: smallRecipe(), Timeline: true}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d\n%s", res.Completed, out.String())
	}
	s := out.String()
	for _, want := range []string{"system:", "metrics:", "completed=2", "unsatisfiable=1", "wall:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// The timeline shows job 2 starting at 100 (after job 1 drains).
	j2, _ := res.Scheduler.Job(2)
	if j2.StartAt != 100 {
		t.Fatalf("j2 start = %d", j2.StartAt)
	}
}

func TestRunTimedArrivals(t *testing.T) {
	// Job 2 arrives at t=30 while job 1 runs; job 3 arrives after
	// everything drained (clock must jump forward).
	jobs := []trace.Job{
		{ID: 1, Submit: 0, Nodes: 4, CoresPerNode: 8, Duration: 100},
		{ID: 2, Submit: 30, Nodes: 4, CoresPerNode: 8, Duration: 50},
		{ID: 3, Submit: 500, Nodes: 1, CoresPerNode: 8, Duration: 10},
	}
	var out bytes.Buffer
	res, err := Run(Config{Recipe: smallRecipe()}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed = %d\n%s", res.Completed, out.String())
	}
	j2, _ := res.Scheduler.Job(2)
	if j2.Submit != 30 || j2.StartAt != 100 {
		t.Fatalf("j2 = %+v", j2)
	}
	j3, _ := res.Scheduler.Job(3)
	if j3.Submit != 500 || j3.StartAt != 500 {
		t.Fatalf("j3 = %+v", j3)
	}
}

func TestRunPolicies(t *testing.T) {
	jobs := trace.Synthesize(20, 4, 8, 3)
	for _, qp := range []sched.QueuePolicy{sched.FCFS, sched.EASY, sched.Conservative} {
		var out bytes.Buffer
		res, err := Run(Config{Recipe: smallRecipe(), QueuePolicy: qp, MatchPolicy: "low"}, jobs, &out)
		if err != nil {
			t.Fatalf("%s: %v", qp, err)
		}
		if res.Completed != 20 {
			t.Fatalf("%s: completed = %d", qp, res.Completed)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := Run(Config{}, nil, &out); err == nil {
		t.Fatal("missing recipe accepted")
	}
	if _, err := Run(Config{Recipe: smallRecipe(), MatchPolicy: "bogus"}, nil, &out); err == nil {
		t.Fatal("bad match policy accepted")
	}
	if _, err := Run(Config{Recipe: smallRecipe(), QueuePolicy: "bogus"}, nil, &out); err == nil {
		t.Fatal("bad queue policy accepted")
	}
}

func TestMaxSteps(t *testing.T) {
	jobs := trace.Synthesize(30, 4, 8, 5)
	var out bytes.Buffer
	res, err := Run(Config{Recipe: smallRecipe(), MaxSteps: 1}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed >= 30 {
		t.Fatalf("MaxSteps ignored: completed = %d", res.Completed)
	}
}

// TestSoak runs a sizeable trace to completion under queue-depth-limited
// conservative backfilling and checks the invariants a long-lived
// scheduler must keep: everything completes and the store fully drains.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	jobs := trace.Synthesize(300, 32, 16, 99)
	var out bytes.Buffer
	res, err := Run(Config{
		Recipe:      grug.Small(8, 8, 16, 0, 0), // 64 nodes
		QueuePolicy: sched.Conservative,
		MatchPolicy: "first",
		QueueDepth:  16,
	}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 300 {
		t.Fatalf("completed = %d\n%s", res.Completed, out.String())
	}
	m := res.Metrics
	if m.Utilization() <= 0 || m.Makespan <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// The store drained: every planner is empty again.
	for _, v := range res.Scheduler.Jobs() {
		if v.State != sched.StateCompleted && v.State != sched.StateUnsatisfiable {
			t.Fatalf("job %d stuck in %v", v.ID, v.State)
		}
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, Submit: 0, Nodes: 2, CoresPerNode: 8, Duration: 400},
		{ID: 2, Submit: 10, Nodes: 1, CoresPerNode: 8, Duration: 300},
		{ID: 3, Submit: 20, Nodes: 1, CoresPerNode: 8, Duration: 200},
	}
	run := func() (*Result, string) {
		var out bytes.Buffer
		res, err := Run(Config{
			Recipe: smallRecipe(), MTBF: 150, MTTR: 40, FaultSeed: 7,
		}, jobs, &out)
		if err != nil {
			t.Fatal(err)
		}
		return res, out.String()
	}
	// terminalLog digests the simulated outcome (wall-clock lines vary
	// run to run and are excluded).
	terminalLog := func(res *Result) string {
		var b strings.Builder
		m := res.Metrics
		fmt.Fprintf(&b, "requeues=%d lost=%d failed=%d completed=%d\n",
			m.Requeues, m.LostCoreSeconds, m.Failed, m.Completed)
		for _, j := range jobs {
			job, ok := res.Scheduler.Job(j.ID)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "job %d: %v [%d,%d] retries=%d\n",
				j.ID, job.State, job.StartAt, job.EndAt, job.Retries)
		}
		return b.String()
	}
	resA, outA := run()
	resB, _ := run()
	if a, b := terminalLog(resA), terminalLog(resB); a != b {
		t.Fatalf("fault runs diverged:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(outA, "faults: seed=7 mtbf=150s mttr=40s over 4 nodes") {
		t.Fatalf("missing fault banner:\n%s", outA)
	}
	if !strings.Contains(outA, "faults injected: downs=") {
		t.Fatalf("missing fault summary:\n%s", outA)
	}
	// A different seed must produce a different fault timeline. (Seeds 7
	// and 8 were checked to differ for this configuration.)
	res2, err := Run(Config{
		Recipe: smallRecipe(), MTBF: 150, MTTR: 40, FaultSeed: 8,
	}, jobs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if terminalLog(res2) == terminalLog(resA) {
		t.Fatal("seed change did not alter the fault timeline")
	}
}

func TestFaultInjectionRequeuesAndCompletes(t *testing.T) {
	// One long job on a 4-node system with frequent faults: the run must
	// terminate and report failure costs in the metrics.
	jobs := []trace.Job{
		{ID: 1, Nodes: 1, CoresPerNode: 8, Duration: 500},
		{ID: 2, Nodes: 1, CoresPerNode: 8, Duration: 500},
	}
	var out bytes.Buffer
	res, err := Run(Config{
		Recipe: smallRecipe(), MTBF: 200, MTTR: 50, FaultSeed: 3, MaxRetries: 10,
	}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Completed+m.Failed != 2 {
		t.Fatalf("completed=%d failed=%d\n%s", m.Completed, m.Failed, out.String())
	}
	if m.Requeues > 0 && m.LostCoreSeconds <= 0 {
		t.Fatalf("requeues=%d but lostCoreSec=%d", m.Requeues, m.LostCoreSeconds)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	if _, err := Run(Config{Recipe: smallRecipe(), MTBF: 100}, nil, io.Discard); err == nil {
		t.Fatal("MTBF without MTTR accepted")
	}
	if _, err := Run(Config{Recipe: smallRecipe(), MTTR: 100}, nil, io.Discard); err == nil {
		t.Fatal("MTTR without MTBF accepted")
	}
}

func TestDrillConvergesWithoutFaults(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, Submit: 0, Nodes: 2, CoresPerNode: 8, Duration: 100},
		{ID: 2, Submit: 10, Nodes: 2, CoresPerNode: 8, Duration: 80},
		{ID: 3, Submit: 20, Nodes: 4, CoresPerNode: 8, Duration: 50},
		{ID: 4, Submit: 150, Nodes: 1, CoresPerNode: 8, Duration: 40},
	}
	var out bytes.Buffer
	res, err := Run(Config{Recipe: smallRecipe(), Drill: true}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DrillRan {
		t.Fatalf("drill did not run:\n%s", out.String())
	}
	if !res.DrillOK {
		t.Fatalf("drill failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drill: PASS") {
		t.Fatalf("missing drill verdict:\n%s", out.String())
	}
}

func TestDrillConvergesUnderFaults(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, Submit: 0, Nodes: 2, CoresPerNode: 8, Duration: 300},
		{ID: 2, Submit: 10, Nodes: 1, CoresPerNode: 8, Duration: 250},
		{ID: 3, Submit: 20, Nodes: 1, CoresPerNode: 8, Duration: 200},
		{ID: 4, Submit: 100, Nodes: 2, CoresPerNode: 8, Duration: 100},
	}
	var out bytes.Buffer
	res, err := Run(Config{
		Recipe: smallRecipe(), Drill: true,
		MTBF: 180, MTTR: 30, FaultSeed: 11, MaxRetries: 20,
	}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DrillRan || !res.DrillOK {
		t.Fatalf("drill under faults: ran=%v ok=%v\n%s", res.DrillRan, res.DrillOK, out.String())
	}
}

// TestDrillConvergesUnderChaos runs the drill with match panics and
// malformed specs against the defense layer. Arrivals are spread so that
// half of them come after the drill's stop: the run recovered from the
// WAL must quarantine and reject exactly the jobs the uninterrupted run
// did, which needs the chaos hooks armed on the recovered run too.
func TestDrillConvergesUnderChaos(t *testing.T) {
	plan := &chaos.Plan{Seed: 23, PanicFrac: 0.15, MalformedFrac: 0.1}
	jobs := trace.Synthesize(60, 8, 8, 35)
	for i := range jobs {
		jobs[i].Submit = int64(i) * 3000
	}
	for _, c := range []struct {
		name   string
		policy sched.QueuePolicy
		depth  int
	}{
		{"conservative", sched.Conservative, 0},
		{"easy", sched.EASY, 0},
		{"conservative-depth3", sched.Conservative, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := Run(Config{
				Recipe:      grug.Small(2, 4, 8, 32, 100),
				QueuePolicy: c.policy,
				QueueDepth:  c.depth,
				Chaos:       plan,
				Drill:       true,
			}, jobs, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.DrillRan || !res.DrillOK {
				t.Fatalf("drill under chaos: ran=%v ok=%v\n%s", res.DrillRan, res.DrillOK, out.String())
			}
			if st := res.Scheduler.Stats(); st.Quarantined == 0 || st.InvalidSpecRejects == 0 {
				t.Fatalf("chaos injected nothing: %+v", st)
			}
			// The defenses absorb the offenders without costing a clean
			// job its run.
			for _, j := range jobs {
				if plan.Poisoned(j.ID) {
					continue
				}
				sj, ok := res.Scheduler.Job(j.ID)
				if !ok {
					t.Errorf("clean job %d was not admitted", j.ID)
				} else if sj.State != sched.StateCompleted {
					t.Errorf("clean job %d ended %v", j.ID, sj.State)
				}
			}
		})
	}
}

// TestDrillSkipsWhenDrained: a run with no work left at the drill's stop
// reports the drill skipped — one that drains after one event against a
// stop after two, or one bounded by MaxSteps at the stop. Bounded past
// the stop, the recovered run takes only the remaining steps.
func TestDrillSkipsWhenDrained(t *testing.T) {
	drained := []trace.Job{
		{ID: 1, Nodes: 1, CoresPerNode: 8, Duration: 10},
		{ID: 2, Nodes: 8, CoresPerNode: 8, Duration: 10}, // unsatisfiable
		{ID: 3, Nodes: 8, CoresPerNode: 8, Duration: 10},
	}
	busy := trace.Synthesize(20, 4, 8, 5)
	for _, c := range []struct {
		name     string
		jobs     []trace.Job
		maxSteps int
		ran      bool
	}{
		{"drained", drained, 0, false},
		{"bounded-at-stop", busy, 10, false},
		{"bounded-past-stop", busy, 14, true},
	} {
		var out bytes.Buffer
		res, err := Run(Config{Recipe: smallRecipe(), Drill: true, MaxSteps: c.maxSteps}, c.jobs, &out)
		if err != nil {
			t.Fatal(err)
		}
		if res.DrillRan != c.ran || res.DrillRan != res.DrillOK || strings.Contains(out.String(), "drill: skipped") == c.ran {
			t.Errorf("%s: drill ran=%v ok=%v, want ran=%v:\n%s", c.name, res.DrillRan, res.DrillOK, c.ran, out.String())
		}
	}
}

// TestDrillLeavesNoFiles: the drill's WAL lives in a temporary directory
// it removes, and a user's WAL directory holds only the printed run's
// state, which a second run recovers in full.
func TestDrillLeavesNoFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	walDir := filepath.Join(t.TempDir(), "wal")
	cfg := Config{Recipe: smallRecipe(), Drill: true, WALDir: walDir}
	jobs := trace.Synthesize(12, 4, 8, 5)
	var out bytes.Buffer
	res, err := Run(cfg, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DrillRan || !res.DrillOK {
		t.Fatalf("drill: ran=%v ok=%v\n%s", res.DrillRan, res.DrillOK, out.String())
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("drill left %d entries in the temporary directory", len(left))
	}
	cfg.Drill = false
	again, err := Run(cfg, jobs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Recovered || again.Recovery.RecordsReplayed != 0 || again.Completed != res.Completed {
		t.Fatalf("second run over the user's WAL: recovered=%v %+v completed=%d, want %d",
			again.Recovered, again.Recovery, again.Completed, res.Completed)
	}
}

// TestRecoveredRunReportsSameMetrics: a second run over a finished run's
// WAL recovers it and prints the same metrics and sched lines — job node
// counts and the work counters travel through the checkpoint. Only
// match=, the wall time spent matching, is run-local.
func TestRecoveredRunReportsSameMetrics(t *testing.T) {
	cfg := Config{
		Recipe: grug.Small(2, 4, 8, 32, 100), QueuePolicy: sched.EASY,
		MTBF: 50000, MTTR: 600, FaultSeed: 42, WALDir: filepath.Join(t.TempDir(), "wal"),
	}
	jobs := trace.Synthesize(60, 8, 8, 9)
	report := func() (string, *Result) {
		var out bytes.Buffer
		res, err := Run(cfg, jobs, &out)
		if err != nil {
			t.Fatal(err)
		}
		var keep []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "metrics:") || strings.HasPrefix(line, "sched:") {
				f := strings.Fields(line)
				for i := range f {
					if strings.HasPrefix(f[i], "match=") {
						f[i] = "match=-"
					}
				}
				keep = append(keep, strings.Join(f, " "))
			}
		}
		return strings.Join(keep, "\n"), res
	}
	first, res := report()
	if res.Recovered || res.Metrics.NodeSecondsUsed == 0 || res.Metrics.Requeues == 0 {
		t.Fatalf("first run: recovered=%v %+v", res.Recovered, res.Metrics)
	}
	again, res := report()
	if !res.Recovered {
		t.Fatal("second run did not recover the first one's WAL")
	}
	if first != again {
		t.Fatalf("recovered run reports\n%s\nthe run it recovered reported\n%s", again, first)
	}
}

func TestRunSharded(t *testing.T) {
	// Four single-rack shards; job sizes stay within one rack so every
	// job is routable and both arms drain completely.
	jobs := []trace.Job{
		{ID: 1, Nodes: 4, CoresPerNode: 8, Duration: 100},
		{ID: 2, Nodes: 2, CoresPerNode: 8, Duration: 50},
		{ID: 3, Nodes: 4, CoresPerNode: 8, Duration: 80},
		{ID: 4, Submit: 30, Nodes: 1, CoresPerNode: 8, Duration: 20},
		{ID: 5, Submit: 60, Nodes: 2, CoresPerNode: 8, Duration: 40},
	}
	var out bytes.Buffer
	res, err := Run(Config{Recipe: grug.Small(4, 4, 8, 0, 0), Shards: 4, Timeline: true}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed = %d\n%s", res.Completed, out.String())
	}
	if res.Sharded == nil || res.Scheduler != nil {
		t.Fatalf("sharded run returned scheduler=%v sharded=%v", res.Scheduler, res.Sharded)
	}
	s := out.String()
	for _, want := range []string{"shards: 4 cut=rack", "metrics:", "router: routed=5", "sched:", "wall:"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if got := res.Sharded.Counts()[sched.StateCompleted]; got != len(jobs) {
		t.Fatalf("counts completed = %d", got)
	}
	if res.Sharded.Unfinished() != 0 {
		t.Fatalf("unfinished = %d", res.Sharded.Unfinished())
	}
}

func TestRunShardedRejectsFlatOnlyFeatures(t *testing.T) {
	base := Config{Recipe: grug.Small(4, 4, 8, 0, 0), Shards: 2}
	for name, mutate := range map[string]func(*Config){
		"wal":   func(c *Config) { c.WALDir = t.TempDir() },
		"drill": func(c *Config) { c.Drill = true },
		"fault": func(c *Config) { c.MTBF = 1000; c.MTTR = 10 },
		"chaos": func(c *Config) { c.Chaos = &chaos.Plan{Seed: 1, PanicFrac: 0.5} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Run(cfg, []trace.Job{{ID: 1, Nodes: 1, CoresPerNode: 8, Duration: 10}}, io.Discard); err == nil {
			t.Errorf("%s: sharded run accepted a flat-only feature", name)
		}
	}
}

func TestRunShardedShardChaos(t *testing.T) {
	jobs := []trace.Job{
		{ID: 1, Nodes: 4, CoresPerNode: 8, Duration: 100},
		{ID: 2, Nodes: 2, CoresPerNode: 8, Duration: 50},
		{ID: 3, Nodes: 4, CoresPerNode: 8, Duration: 80},
		{ID: 4, Nodes: 1, CoresPerNode: 8, Duration: 20},
		{ID: 5, Nodes: 2, CoresPerNode: 8, Duration: 40},
	}
	// Seed 1 at 0.25 kills shard 3's cycles; the open-from-zero window
	// trips it on the very first scheduling round, so supervision is
	// provably live even in a short drain.
	plan := &chaos.Plan{Seed: 1, ShardKillFrac: 0.25}
	var out bytes.Buffer
	res, err := Run(Config{Recipe: grug.Small(4, 4, 8, 0, 0), Shards: 4, Chaos: plan}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Fatalf("completed = %d\n%s", res.Completed, out.String())
	}
	if !res.Sharded.Supervised() {
		t.Fatal("shard chaos must auto-enable the supervisor")
	}
	s := out.String()
	for _, want := range []string{"mode=supervised", "supervisor: trips=", "-> suspect"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}

	// A fault window that closes mid-run: the killed shard's jobs
	// complete on the survivors or count as lost, and the recovery
	// probes reabsorb the shard once the window has passed.
	busy := trace.Synthesize(120, 4, 8, 7)
	bounded := &chaos.Plan{Seed: 1, ShardKillFrac: 0.25, ShardFaultFrom: 1, ShardFaultUntil: 2000}
	res, err = Run(Config{Recipe: grug.Small(4, 4, 8, 0, 0), Shards: 4, QueuePolicy: sched.EASY, Chaos: bounded}, busy, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sharded.SupervisorStats()
	if st.Failures < 1 || st.Recoveries < 1 || st.Drained+st.Evicted == 0 {
		t.Fatalf("bounded window: %+v, want a failure, a recovery and jobs moved", st)
	}
	if int64(res.Completed)+st.Lost != int64(len(busy)) {
		t.Fatalf("bounded window: completed=%d + lost=%d != submitted %d", res.Completed, st.Lost, len(busy))
	}

	// The dry twin ignores the plan: no hook, no supervisor, and the
	// schedule matches a plan-free run of the same trace.
	out.Reset()
	dry, err := Run(Config{Recipe: grug.Small(4, 4, 8, 0, 0), Shards: 4, Chaos: plan, ChaosDry: true}, jobs, &out)
	if err != nil {
		t.Fatal(err)
	}
	if dry.Sharded.Supervised() {
		t.Fatal("dry twin must not enable the supervisor")
	}
	if !strings.Contains(out.String(), "mode=dry") {
		t.Errorf("dry twin output missing mode=dry:\n%s", out.String())
	}
	for _, j := range jobs {
		cj, _ := res.Sharded.Job(j.ID)
		dj, _ := dry.Sharded.Job(j.ID)
		if cj.State != dj.State {
			t.Errorf("job %d: chaos state %v, dry state %v", j.ID, cj.State, dj.State)
		}
	}
}

func TestFlatRejectsShardChaos(t *testing.T) {
	cfg := Config{Recipe: smallRecipe(), Chaos: &chaos.Plan{Seed: 1, ShardKillFrac: 0.5}}
	if _, err := Run(cfg, []trace.Job{{ID: 1, Nodes: 1, CoresPerNode: 8, Duration: 10}}, io.Discard); err == nil {
		t.Fatal("flat run accepted a shard chaos plan")
	}
}
