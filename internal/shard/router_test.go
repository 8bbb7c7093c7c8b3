package shard

import (
	"errors"
	"slices"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/sched"
	"fluxion/internal/traverser"
)

// TestRoutingSpreadsLoad: on an idle system, successive full-shard jobs
// must land on distinct shards (headroom routing), not pile onto one.
func TestRoutingSpreadsLoad(t *testing.T) {
	sh := newSharded(t, sched.FCFS, "first", 2, 2, 2, 4)
	mustSubmit := func(id, nodes, dur int64) *sched.Job {
		t.Helper()
		j, err := sh.Submit(id, nodeJob(nodes, 4, dur))
		if err != nil {
			t.Fatal(err)
		}
		sh.Schedule()
		return j
	}
	mustSubmit(1, 2, 100)
	mustSubmit(2, 2, 100)
	k1, k2 := sh.byJob[1], sh.byJob[2]
	if k1 == k2 {
		t.Fatalf("both full-shard jobs routed to shard %d", k1)
	}
	for id := int64(1); id <= 2; id++ {
		if j, ok := sh.Job(id); !ok || j.State != sched.StateRunning {
			t.Fatalf("job %d not running (%v)", id, j)
		}
	}
}

// TestWorkStealing: a job left pending on a saturated shard is stolen by
// the rebalancer as soon as another shard's residues fit it, keeping its
// original submit time. FCFS never reserves, so the blocked job stays
// stealable.
func TestWorkStealing(t *testing.T) {
	sh := newSharded(t, sched.FCFS, "first", 2, 2, 2, 4)
	submit := func(id, nodes, dur int64) {
		t.Helper()
		if _, err := sh.Submit(id, nodeJob(nodes, 4, dur)); err != nil {
			t.Fatal(err)
		}
		sh.Schedule()
	}
	submit(1, 2, 100) // fills shard 0 until t=100
	submit(2, 2, 10)  // fills shard 1 until t=10
	if err := sh.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	submit(3, 2, 50) // blocked everywhere; ties to shard 0's queue
	if got := sh.RouterStats().Steals; got != 0 {
		t.Fatalf("premature steal (%d) while no shard had room", got)
	}
	origin := sh.byJob[3]
	sh.Run(0)
	j, ok := sh.Job(3)
	if !ok || j.State != sched.StateCompleted {
		t.Fatalf("job 3 did not complete: %v", j)
	}
	if sh.RouterStats().Steals == 0 {
		t.Fatal("rebalancer never stole the blocked job")
	}
	if sh.byJob[3] == origin {
		t.Fatalf("job 3 still on origin shard %d", origin)
	}
	if j.Submit != 5 {
		t.Errorf("steal lost the submit time: got %d, want 5", j.Submit)
	}
	if j.StartAt != 10 {
		t.Errorf("stolen job started at %d, want 10 (the moment shard 1 drained)", j.StartAt)
	}
}

// TestMaxStealsPerJobCap: a job that has exhausted its per-job steal
// budget stays put even when another shard could take it — the
// anti-ping-pong bound. Replays the TestWorkStealing scenario with job
// 3's budget pre-spent: no steal happens and the job waits out its
// origin shard instead of starting the moment the other shard drains.
func TestMaxStealsPerJobCap(t *testing.T) {
	sh := newSharded(t, sched.FCFS, "first", 2, 2, 2, 4)
	submit := func(id, nodes, dur int64) {
		t.Helper()
		if _, err := sh.Submit(id, nodeJob(nodes, 4, dur)); err != nil {
			t.Fatal(err)
		}
		sh.Schedule()
	}
	submit(1, 2, 100) // fills shard 0 until t=100
	submit(2, 2, 10)  // fills shard 1 until t=10
	if err := sh.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	submit(3, 2, 50) // blocked everywhere; ties to shard 0's queue
	sh.routes[3].steals = DefaultMaxStealsPerJob
	origin := sh.byJob[3]
	sh.Run(0)
	if got := sh.RouterStats().Steals; got != 0 {
		t.Fatalf("capped job stolen anyway (%d steals)", got)
	}
	if sh.byJob[3] != origin {
		t.Fatalf("job 3 moved off shard %d despite a spent steal budget", origin)
	}
	j, ok := sh.Job(3)
	if !ok || j.State != sched.StateCompleted {
		t.Fatalf("job 3 did not complete: %v", j)
	}
	if j.StartAt != 100 {
		t.Errorf("job 3 started at %d, want 100 (waits out its origin shard)", j.StartAt)
	}
}

// TestRefusedStealKeepsJob: headroom compares per-type totals only, so
// a receiver whose nodes have another shape can pass it and still find
// the job unsatisfiable. A refused steal must leave the job on its donor
// in its queue position, and must not lose it while the donor's
// admission latch is shut.
func TestRefusedStealKeepsJob(t *testing.T) {
	for _, latch := range []bool{false, true} {
		// Shard 0 has 2 nodes × 8 cores. Shard 1 has 4 nodes × 2 cores:
		// enough nodes and cores in total for a 1-node × 4-core job, but
		// no node that holds it.
		recipe := &grug.Recipe{Name: "mixed", Root: grug.N("cluster", 1,
			grug.N("rack", 1, grug.N("node", 2, grug.N("core", 8))),
			grug.N("rack", 1, grug.N("node", 4, grug.N("core", 2))))}
		g, err := grug.BuildGraph(recipe, 0, 1<<40, testPrune)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Graph: g, Shards: 2, Queue: sched.FCFS}
		if latch {
			cfg.SchedOpts = []sched.SchedOption{sched.WithDefense(sched.DefenseConfig{AdmitHigh: 3, AdmitLow: 1})}
		}
		sh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Job 1 fills shard 0, the only shard it fits. Job 2 fits only
		// shard 0's node shape, jobs 3 and 4 need both its nodes: all
		// three queue there behind job 1.
		for _, j := range []struct{ id, nodes, cores, dur int64 }{
			{1, 2, 8, 100}, {2, 1, 4, 10}, {3, 2, 8, 10}, {4, 2, 8, 10},
		} {
			if _, err := sh.Submit(j.id, nodeJob(j.nodes, j.cores, j.dur)); err != nil {
				t.Fatal(err)
			}
			if j.id == 1 {
				sh.Schedule()
			}
		}
		if latch {
			// A fourth queued job meets the high watermark and shuts the
			// latch; it stays shut until shard 0's queue drains to 1.
			if _, err := sh.Submit(5, nodeJob(2, 8, 10)); !errors.Is(err, sched.ErrOverload) {
				t.Fatalf("latch: submit past AdmitHigh: %v, want ErrOverload", err)
			}
		}
		sh.Schedule() // the rebalance round offers job 2 to shard 1
		var queue []int64
		for _, j := range sh.ShardScheduler(0).PendingJobs() {
			queue = append(queue, j.ID)
		}
		if !slices.Equal(queue, []int64{2, 3, 4}) {
			t.Fatalf("latch=%v: shard 0 queue %v after a refused steal, want [2 3 4]", latch, queue)
		}
		if got := sh.RouterStats().Steals; got != 0 {
			t.Fatalf("latch=%v: %d steals counted for a refused move", latch, got)
		}
		sh.Run(0)
		j, ok := sh.Job(2)
		if !ok || j.State != sched.StateCompleted || j.StartAt != 100 {
			t.Fatalf("latch=%v: job 2 = %+v, want completed, started at 100", latch, j)
		}
	}
}

// TestOverflowReroute: the router's headroom ranking can prefer a shard
// whose surviving (post-failure) capacity cannot hold the job — static
// caps are fixed at build and the healthier shard can be buried in queued
// demand. The submit must then overflow: withdrawn from the first choice
// and rerouted to the next-best shard instead of being recorded
// unsatisfiable.
func TestOverflowReroute(t *testing.T) {
	// 3 racks × 2 nodes, 2 shards: shard 0 owns racks 0+2 (4 nodes),
	// shard 1 owns rack 1 (2 nodes).
	sh := newSharded(t, sched.FCFS, "first", 2, 3, 2, 4)
	// Kill 3 of shard 0's nodes: 1 survivor, static cap still 4.
	for _, path := range []string{"/cluster0/rack0/node0", "/cluster0/rack0/node1", "/cluster0/rack2/node4"} {
		if _, err := sh.ShardScheduler(0).NodeDown(path); err != nil {
			t.Fatal(err)
		}
	}
	// Fill shard 1 (residue 0 there; shard 0 keeps residue 1).
	if _, err := sh.Submit(1, nodeJob(2, 4, 500)); err != nil {
		t.Fatal(err)
	}
	sh.Schedule()
	if sh.byJob[1] != 1 {
		t.Fatalf("setup: job 1 routed to shard %d, want 1", sh.byJob[1])
	}
	// 2-node job: shard 0 scores higher (-1 vs -2) but only 1 node
	// survives there — unsatisfiable on arrival, must reroute to shard 1.
	j, err := sh.Submit(2, nodeJob(2, 4, 50))
	if err != nil {
		t.Fatal(err)
	}
	if sh.RouterStats().Rerouted != 1 {
		t.Fatalf("rerouted = %d, want 1", sh.RouterStats().Rerouted)
	}
	if sh.byJob[2] != 1 {
		t.Fatalf("job 2 on shard %d after overflow, want 1", sh.byJob[2])
	}
	if j.State == sched.StateUnsatisfiable {
		t.Fatal("job 2 recorded unsatisfiable despite a feasible shard")
	}
	sh.Run(0)
	if j, _ := sh.Job(2); j.State != sched.StateCompleted {
		t.Fatalf("job 2 finished %v", j.State)
	}
}

// TestUnroutableJob: a job larger than every shard's static capacity is
// recorded unsatisfiable (on shard 0), counted as unroutable — the
// quantified quality cost of partitioning.
func TestUnroutableJob(t *testing.T) {
	sh := newSharded(t, sched.FCFS, "first", 2, 3, 2, 4) // caps 4 and 2 nodes
	j, err := sh.Submit(1, nodeJob(5, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != sched.StateUnsatisfiable {
		t.Fatalf("5-node job state %v, want unsatisfiable", j.State)
	}
	if sh.RouterStats().Unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1", sh.RouterStats().Unroutable)
	}
	if _, ok := sh.Job(1); !ok {
		t.Fatal("unroutable job missing from router table")
	}
}

// TestShardedWithdraw: withdrawing via the router removes the job from
// its owning shard and the routing table; duplicates and unknown IDs
// error cleanly.
func TestShardedWithdraw(t *testing.T) {
	sh := newSharded(t, sched.FCFS, "first", 2, 2, 2, 4)
	if _, err := sh.Submit(1, nodeJob(1, 4, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Submit(1, nodeJob(1, 4, 100)); err == nil {
		t.Fatal("duplicate submit accepted")
	}
	if _, err := sh.Withdraw(1); err != nil {
		t.Fatal(err)
	}
	if _, ok := sh.Job(1); ok {
		t.Fatal("withdrawn job still visible")
	}
	if _, err := sh.Withdraw(1); !errors.Is(err, traverser.ErrUnknownJob) {
		t.Fatalf("second withdraw: %v, want ErrUnknownJob", err)
	}
	// The ID is free for resubmission.
	if _, err := sh.Submit(1, nodeJob(1, 4, 10)); err != nil {
		t.Fatal(err)
	}
	sh.Run(0)
	if j, _ := sh.Job(1); j.State != sched.StateCompleted {
		t.Fatalf("resubmitted job finished %v", j.State)
	}
}

// TestConfigValidation covers New's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 1}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := testGraph(t, 2, 2, 4)
	if _, err := New(Config{Graph: g, Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := New(Config{Graph: g, Shards: 3}); err == nil {
		t.Fatal("3 shards from 2 racks accepted")
	}
	if _, err := New(Config{Graph: g, Shards: 2, CutType: "nope"}); err == nil {
		t.Fatal("unknown cut type accepted")
	}
	if _, err := New(Config{Graph: g, Shards: 2, MatchPolicy: "bogus"}); err == nil {
		t.Fatal("unknown match policy accepted")
	}
}
