package shard

import (
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"fluxion/internal/chaos"
	"fluxion/internal/sched"
)

// newSupervised builds a supervised sharded scheduler for tests.
func newSupervised(t testing.TB, cfg SupervisorConfig, shards int, racks, nodes, cores int64) *Sharded {
	t.Helper()
	sh, err := New(Config{
		Graph:      testGraph(t, racks, nodes, cores),
		Shards:     shards,
		Queue:      sched.FCFS,
		Supervisor: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TouchedJobs returns the sorted IDs of every job a failover moved,
// evicted, or lost — the jobs excluded from decision-parity claims.
func (sh *Sharded) TouchedJobs() []int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sup == nil {
		return nil
	}
	out := make([]int64, 0, len(sh.sup.touched))
	for id := range sh.sup.touched {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// killSwitch is an atomically togglable cycle hook targeting one shard.
type killSwitch struct {
	victim int
	on     atomic.Bool
}

func (k *killSwitch) hook(shard int, now int64) {
	if k.on.Load() && shard == k.victim {
		panic("test: injected shard kill")
	}
}

// TestHealthStateMachine walks the supervision state machine round by
// round: healthy → suspect on a fence trip, suspect → healthy on a good
// cycle, and suspect → failed only after FailAfter counted probes spaced
// by the doubling backoff.
func TestHealthStateMachine(t *testing.T) {
	sh := newSupervised(t, SupervisorConfig{
		SuspectAfter: 1, FailAfter: 2, ProbeBackoff: 1,
		RecoveryProbe: -1, GraceSeconds: -1,
	}, 2, 2, 2, 4)
	ks := &killSwitch{victim: 1}
	sh.SetCycleHook(ks.hook)

	sh.Schedule()
	if h := sh.ShardHealth(1); h != Healthy {
		t.Fatalf("clean cycle: health %v, want healthy", h)
	}

	// One trip suspects; one good cycle heals.
	ks.on.Store(true)
	sh.Schedule()
	if h := sh.ShardHealth(1); h != Suspect {
		t.Fatalf("after 1 trip: health %v, want suspect", h)
	}
	ks.on.Store(false)
	sh.Schedule()
	if h := sh.ShardHealth(1); h != Healthy {
		t.Fatalf("after recovery cycle: health %v, want healthy", h)
	}

	// Persistent fault: R1 suspect, R2 counted probe #1 (backoff -> 1),
	// R3 backoff round, R4 counted probe #2 -> failed.
	ks.on.Store(true)
	want := []Health{Suspect, Suspect, Suspect, Failed}
	for i, w := range want {
		sh.Schedule()
		if h := sh.ShardHealth(1); h != w {
			t.Fatalf("persistent fault round %d: health %v, want %v", i+1, h, w)
		}
	}
	if h := sh.ShardHealth(0); h != Healthy {
		t.Fatalf("bystander shard health %v, want healthy", h)
	}

	st := sh.SupervisorStats()
	if st.Trips != 5 {
		t.Errorf("trips = %d, want 5", st.Trips)
	}
	if st.Probes != 2 {
		t.Errorf("probes = %d, want 2", st.Probes)
	}
	if st.Failures != 1 {
		t.Errorf("failures = %d, want 1", st.Failures)
	}
	// Failed + RecoveryProbe<0: the shard stays dark, no new trips.
	sh.Schedule()
	if got := sh.SupervisorStats().Trips; got != st.Trips {
		t.Errorf("dark shard still cycling: trips %d -> %d", st.Trips, got)
	}

	// The event log tells the same story.
	var seq []string
	for _, e := range sh.HealthEvents() {
		if e.Shard == 1 {
			seq = append(seq, e.From.String()+">"+e.To.String())
		}
	}
	wantSeq := []string{"healthy>suspect", "suspect>healthy", "healthy>suspect", "suspect>failed"}
	if len(seq) != len(wantSeq) {
		t.Fatalf("event log %v, want %v", seq, wantSeq)
	}
	for i := range wantSeq {
		if seq[i] != wantSeq[i] {
			t.Fatalf("event log %v, want %v", seq, wantSeq)
		}
	}
}

// TestCycleDeadlineTripsSuspect: a stalled (not panicking) cycle over
// the deadline counts as a bad cycle and suspects the shard; recovery on
// the next fast cycle.
func TestCycleDeadlineTripsSuspect(t *testing.T) {
	sh := newSupervised(t, SupervisorConfig{
		CycleDeadline: time.Millisecond, RecoveryProbe: -1,
	}, 2, 2, 2, 4)
	var stall atomic.Bool
	sh.SetCycleHook(func(shard int, now int64) {
		if stall.Load() && shard == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	stall.Store(true)
	sh.Schedule()
	if h := sh.ShardHealth(0); h != Suspect {
		t.Fatalf("after stalled cycle: health %v, want suspect", h)
	}
	if st := sh.SupervisorStats(); st.DeadlineMisses == 0 || st.Trips != 0 {
		t.Fatalf("stats %+v: want deadline misses without fence trips", st)
	}
	stall.Store(false)
	sh.Schedule()
	if h := sh.ShardHealth(0); h != Healthy {
		t.Fatalf("after fast cycle: health %v, want healthy", h)
	}
}

// TestFailoverDrainsPendingAndEvictsRunning: failing a shard moves its
// pending jobs to survivors through the steal path (submit time and
// retries preserved) and, with no grace, forces its running jobs through
// the requeue path onto survivors too. Nothing is lost; the failed shard
// takes no further placements.
func TestFailoverDrainsPendingAndEvictsRunning(t *testing.T) {
	sh := newSupervised(t, SupervisorConfig{
		RecoveryProbe: -1, GraceSeconds: -1,
	}, 2, 2, 2, 4)
	submit := func(id, nodes, dur int64) {
		t.Helper()
		if _, err := sh.Submit(id, nodeJob(nodes, 4, dur)); err != nil {
			t.Fatal(err)
		}
		sh.Schedule()
	}
	submit(1, 2, 100) // fills one shard until t=100
	submit(2, 2, 10)  // fills the other until t=10
	if err := sh.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	submit(3, 2, 50) // blocked everywhere, pending on job 1's shard
	victim := sh.byJob[1]
	if sh.byJob[3] != victim {
		t.Fatalf("setup: job 3 on shard %d, want %d (job 1's)", sh.byJob[3], victim)
	}
	survivor := 1 - victim

	if err := sh.FailShard(victim, "test drill"); err != nil {
		t.Fatal(err)
	}
	if h := sh.ShardHealth(victim); h != Failed {
		t.Fatalf("victim health %v, want failed", h)
	}
	for id := int64(1); id <= 3; id++ {
		if id == 2 {
			continue
		}
		if sh.byJob[id] != survivor {
			t.Fatalf("job %d on shard %d after failover, want %d", id, sh.byJob[id], survivor)
		}
	}
	st := sh.SupervisorStats()
	if st.Drained != 2 || st.Evicted != 1 || st.Lost != 0 {
		t.Fatalf("stats %+v: want drained=2 evicted=1 lost=0", st)
	}

	sh.Run(0)
	for id := int64(1); id <= 3; id++ {
		j, ok := sh.Job(id)
		if !ok || j.State != sched.StateCompleted {
			t.Fatalf("job %d finished %v", id, j)
		}
	}
	if j, _ := sh.Job(3); j.Submit != 5 {
		t.Errorf("drain lost job 3's submit time: got %d, want 5", j.Submit)
	}
	if j, _ := sh.Job(1); j.Retries != 1 {
		t.Errorf("evicted job 1 retries = %d, want 1", j.Retries)
	}
	if m := sh.Metrics(); m.Requeues != 1 || m.LostCoreSeconds == 0 {
		t.Errorf("metrics requeues=%d lost-core=%d: want 1 and >0", m.Requeues, m.LostCoreSeconds)
	}
	touched := sh.TouchedJobs()
	if len(touched) != 2 || touched[0] != 1 || touched[1] != 3 {
		t.Errorf("touched jobs %v, want [1 3]", touched)
	}
}

// TestDrainLostJob: a pending job no surviving shard's static capacity
// can hold is recorded lost (StateFailed) — visible through the router's
// job table and counted, not silently dropped.
func TestDrainLostJob(t *testing.T) {
	// 3 racks × 2 nodes, 2 shards: shard 0 owns 4 nodes, shard 1 owns 2.
	sh := newSupervised(t, SupervisorConfig{
		RecoveryProbe: -1, GraceSeconds: -1,
	}, 2, 3, 2, 4)
	if _, err := sh.Submit(1, nodeJob(3, 4, 50)); err != nil {
		t.Fatal(err)
	}
	if sh.byJob[1] != 0 {
		t.Fatalf("setup: 3-node job on shard %d, want 0", sh.byJob[1])
	}
	if err := sh.FailShard(0, "test"); err != nil {
		t.Fatal(err)
	}
	j, ok := sh.Job(1)
	if !ok {
		t.Fatal("lost job vanished from the router table")
	}
	if j.State != sched.StateFailed {
		t.Fatalf("lost job state %v, want failed", j.State)
	}
	if st := sh.SupervisorStats(); st.Lost != 1 {
		t.Fatalf("lost = %d, want 1", st.Lost)
	}
	if m := sh.Metrics(); m.Failed != 1 {
		t.Fatalf("metrics failed = %d, want 1", m.Failed)
	}
}

// TestKillAndReabsorbDrill is the acceptance drill: a 4-shard run with
// one shard chaos-killed mid-workload drains every non-lost job to the
// survivors, and after the fault clears and Reabsorb runs, the shard is
// healthy, takes placements again, and the run completes every job.
func TestKillAndReabsorbDrill(t *testing.T) {
	sh := newSupervised(t, SupervisorConfig{
		FailAfter: 1, RecoveryProbe: -1, GraceSeconds: -1,
	}, 4, 4, 2, 4)
	ks := &killSwitch{victim: 2}
	sh.SetCycleHook(ks.hook)

	const jobs = 16
	for id := int64(1); id <= jobs; id++ {
		if _, err := sh.Submit(id, nodeJob(1+id%2, 4, 30+10*(id%5))); err != nil {
			t.Fatal(err)
		}
	}
	sh.Schedule()

	// Kill shard 2 mid-workload: suspect, then fail on the counted probe.
	ks.on.Store(true)
	sh.Schedule()
	sh.Schedule()
	if h := sh.ShardHealth(2); h != Failed {
		t.Fatalf("victim health %v after kill, want failed", h)
	}
	st := sh.SupervisorStats()
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	for id := int64(1); id <= jobs; id++ {
		if sh.byJob[id] == 2 {
			if j, _ := sh.Job(id); j.State != sched.StateUnsatisfiable {
				t.Fatalf("job %d (%v) still owned by the failed shard", id, j.State)
			}
		}
	}

	// Fault clears; operator reabsorbs.
	ks.on.Store(false)
	if err := sh.Reabsorb(2); err != nil {
		t.Fatal(err)
	}
	if h := sh.ShardHealth(2); h != Healthy {
		t.Fatalf("health %v after reabsorb, want healthy", h)
	}
	if got := sh.SupervisorStats().Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}

	// The rebuilt shard must accept placements: it is idle while the
	// survivors carry the drained backlog, so a full-shard job routes to
	// it, and its post-run residues account for every placement.
	if _, err := sh.Submit(100, nodeJob(2, 4, 20)); err != nil {
		t.Fatal(err)
	}
	if sh.byJob[100] != 2 {
		t.Fatalf("post-reabsorb job routed to shard %d, want the idle shard 2", sh.byJob[100])
	}
	sh.Run(0)
	counts := sh.Counts()
	if lost := sh.SupervisorStats().Lost; lost != 0 {
		t.Fatalf("lost = %d, want 0 (every drained job fits a survivor)", lost)
	}
	if counts[sched.StateCompleted] != jobs+1 {
		t.Fatalf("completed = %d, want %d (counts %v)", counts[sched.StateCompleted], jobs+1, counts)
	}
	// Router residues consistent: with everything complete, the rebuilt
	// shard's residues equal its static capacity.
	vst := sh.shards[2]
	for rt, c := range vst.cap {
		if got := vst.residues(sh.Now())[rt]; got != c {
			t.Errorf("shard 2 residue[%s] = %d, want %d (all jobs done)", rt, got, c)
		}
	}
}

// TestAutoRecoveryProbes: with the fault window closed, the automatic
// recovery probe schedule reabsorbs a failed shard without operator
// intervention.
func TestAutoRecoveryProbes(t *testing.T) {
	sh := newSupervised(t, SupervisorConfig{
		FailAfter: 1, RecoveryProbe: 1, GraceSeconds: -1,
	}, 2, 2, 2, 4)
	ks := &killSwitch{victim: 1}
	sh.SetCycleHook(ks.hook)
	ks.on.Store(true)
	sh.Schedule()
	sh.Schedule()
	if h := sh.ShardHealth(1); h != Failed {
		t.Fatalf("health %v, want failed", h)
	}
	// While the fault persists, probes fail and back off.
	sh.Schedule()
	sh.Schedule()
	if h := sh.ShardHealth(1); h != Failed {
		t.Fatalf("health %v while fault persists, want failed", h)
	}
	ks.on.Store(false)
	for i := 0; i < 8 && sh.ShardHealth(1) != Healthy; i++ {
		sh.Schedule()
	}
	if h := sh.ShardHealth(1); h != Healthy {
		t.Fatalf("health %v after fault cleared, want healthy (auto probe)", h)
	}
	if got := sh.SupervisorStats().Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// findKillSeed scans chaos seeds for one whose shard-kill hash hits
// exactly one of n shards at the given intensity.
func findKillSeed(t testing.TB, n int, frac float64) (int64, int) {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		p := &chaos.Plan{Seed: seed, ShardKillFrac: frac}
		victim, hits := -1, 0
		for i := 0; i < n; i++ {
			if p.KillsShard(i) {
				victim, hits = i, hits+1
			}
		}
		if hits == 1 {
			return seed, victim
		}
	}
	t.Fatal("no seed kills exactly one shard")
	return 0, 0
}

// TestShardKillDecisionParity is the tentpole acceptance property: under
// seeded shard-kill chaos, jobs never placed on the killed shard must
// schedule identically (state, start, end, owning shard) to a fault-free
// run that simply excludes that shard — the fault's blast radius is
// exactly the victim. The chaos run kills the shard before any
// placements (fault window open from t=0, detection inside the warmup
// rounds), so no job is ever routed there; the twin run administratively
// fails the same shard upfront. Checked across every queue policy and
// two workload seeds.
func TestShardKillDecisionParity(t *testing.T) {
	const shards = 4
	chaosSeed, victim := findKillSeed(t, shards, 0.25)
	plan := &chaos.Plan{Seed: chaosSeed, ShardKillFrac: 0.25}
	cfg := SupervisorConfig{FailAfter: 1, RecoveryProbe: -1, GraceSeconds: -1}

	for _, policy := range []sched.QueuePolicy{sched.FCFS, sched.EASY, sched.Conservative} {
		for seed := int64(1); seed <= 2; seed++ {
			work := randomWorkload(seed, 40)

			live, err := New(Config{
				Graph: testGraph(t, shards, 4, 4), Shards: shards,
				Queue: policy, Supervisor: &cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			live.SetCycleHook(plan.ShardHook())
			for i := 0; i < 4; i++ {
				live.Schedule()
			}
			if h := live.ShardHealth(victim); h != Failed {
				t.Fatalf("victim %d health %v after warmup, want failed", victim, h)
			}

			twin, err := New(Config{
				Graph: testGraph(t, shards, 4, 4), Shards: shards,
				Queue: policy, Supervisor: &cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.FailShard(victim, "parity twin"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				twin.Schedule()
			}

			drive(t, live, work)
			drive(t, twin, work)

			if got := live.TouchedJobs(); len(got) != 0 {
				t.Fatalf("%s/seed%d: failover touched jobs %v — parity claim would be vacuous", policy, seed, got)
			}
			lj, tj := live.Jobs(), twin.Jobs()
			if len(lj) != len(work) || len(tj) != len(work) {
				t.Fatalf("%s/seed%d: job tables %d/%d, want %d", policy, seed, len(lj), len(tj), len(work))
			}
			completed := 0
			for id, a := range lj {
				b, ok := tj[id]
				if !ok {
					t.Fatalf("%s/seed%d: job %d missing from twin", policy, seed, id)
				}
				if a.State != b.State || a.StartAt != b.StartAt || a.EndAt != b.EndAt {
					t.Errorf("%s/seed%d: job %d diverged: chaos %v@[%d,%d] vs twin %v@[%d,%d]",
						policy, seed, id, a.State, a.StartAt, a.EndAt, b.State, b.StartAt, b.EndAt)
				}
				if live.byJob[id] != twin.byJob[id] {
					t.Errorf("%s/seed%d: job %d placement diverged: shard %d vs %d",
						policy, seed, id, live.byJob[id], twin.byJob[id])
				}
				if live.byJob[id] == victim {
					t.Errorf("%s/seed%d: job %d placed on the killed shard", policy, seed, id)
				}
				if a.State == sched.StateCompleted {
					completed++
				}
			}
			if completed == 0 {
				t.Fatalf("%s/seed%d: no job completed — property is vacuous", policy, seed)
			}
			if live.Now() != twin.Now() {
				t.Errorf("%s/seed%d: clocks diverged: %d vs %d", policy, seed, live.Now(), twin.Now())
			}
			if t.Failed() {
				return
			}
		}
	}
}
