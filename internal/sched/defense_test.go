package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fluxion/internal/jobspec"
)

// TestPanicQuarantineParity drives the engine under every policy with a
// match hook that panics for one job and asserts
// (a) the panic is contained: the job is quarantined with QuarantinePanic
// and the run completes, and (b) decision parity: every other job
// schedules exactly as in a run where the poisoned job was never
// submitted.
func TestPanicQuarantineParity(t *testing.T) {
	cases := []struct {
		name   string
		policy QueuePolicy
		opts   []SchedOption
	}{
		{"fcfs-incremental", FCFS, nil},
		{"easy-incremental", EASY, nil},
		{"conservative-incremental", Conservative, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]SchedOption{WithDefense(DefenseConfig{})}, tc.opts...)
			s := newSchedOpts(t, tc.policy, 1, 2, 4, opts...)
			s.SetMatchHook(func(id int64) {
				if id == 2 {
					panic("injected")
				}
			})
			mustSubmit(t, s, 1, nodeJob(1, 4, 100))
			mustSubmit(t, s, 2, nodeJob(1, 4, 30))
			mustSubmit(t, s, 3, nodeJob(2, 4, 50))
			mustSubmit(t, s, 4, nodeJob(1, 4, 20))
			if done := s.Run(0); done != 3 {
				t.Fatalf("completed = %d", done)
			}
			j2, _ := s.Job(2)
			if j2.State != StateQuarantined || j2.Quarantine != QuarantinePanic {
				t.Fatalf("j2 = %v reason=%v", j2.State, j2.Quarantine)
			}
			if !strings.Contains(j2.QuarantineMsg, "injected") {
				t.Fatalf("quarantine msg = %q", j2.QuarantineMsg)
			}
			if got := s.Stats().Quarantined; got != 1 {
				t.Fatalf("Stats().Quarantined = %d", got)
			}
			if ids := s.Quarantined(); len(ids) != 1 || ids[0] != 2 {
				t.Fatalf("Quarantined() = %v", ids)
			}
			if m := s.Metrics(); m.Quarantined != 1 {
				t.Fatalf("Metrics().Quarantined = %d", m.Quarantined)
			}

			// Baseline: same workload minus the poisoned job, no defense.
			base := newSchedOpts(t, tc.policy, 1, 2, 4, tc.opts...)
			mustSubmit(t, base, 1, nodeJob(1, 4, 100))
			mustSubmit(t, base, 3, nodeJob(2, 4, 50))
			mustSubmit(t, base, 4, nodeJob(1, 4, 20))
			base.Run(0)
			for _, id := range []int64{1, 3, 4} {
				ja, _ := s.Job(id)
				jb, _ := base.Job(id)
				if ja.State != jb.State || ja.StartAt != jb.StartAt || ja.EndAt != jb.EndAt {
					t.Fatalf("parity: job %d = %v@[%d,%d], baseline %v@[%d,%d]",
						id, ja.State, ja.StartAt, ja.EndAt, jb.State, jb.StartAt, jb.EndAt)
				}
			}
		})
	}
}

// TestMatchDeadlineQuarantine: a failed attempt over MatchDeadline
// quarantines the job; successful attempts are never deadline-checked.
func TestMatchDeadlineQuarantine(t *testing.T) {
	s := newSchedOpts(t, FCFS, 1, 2, 4,
		WithDefense(DefenseConfig{MatchDeadline: time.Nanosecond}))
	mustSubmit(t, s, 1, nodeJob(2, 4, 100)) // takes both nodes; succeeds
	mustSubmit(t, s, 2, nodeJob(1, 4, 50))  // blocked: fails, and any failure beats 1ns
	s.Schedule()
	j1, _ := s.Job(1)
	j2, _ := s.Job(2)
	if j1.State != StateRunning {
		t.Fatalf("j1 = %v (slow-success must not quarantine)", j1.State)
	}
	if j2.State != StateQuarantined || j2.Quarantine != QuarantineDeadline {
		t.Fatalf("j2 = %v reason=%v msg=%q", j2.State, j2.Quarantine, j2.QuarantineMsg)
	}
}

// TestManualQuarantineRelease covers the operator API: pending and
// reserved jobs can be quarantined (reservations are demoted first),
// running jobs cannot, and a released job re-enters the queue and
// schedules normally.
func TestManualQuarantineRelease(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4, WithDefense(DefenseConfig{}))
	mustSubmit(t, s, 1, nodeJob(2, 4, 100))
	mustSubmit(t, s, 2, nodeJob(1, 4, 50))
	s.Schedule()
	j2, _ := s.Job(2)
	if j2.State != StateReserved {
		t.Fatalf("j2 = %v", j2.State)
	}
	if err := s.Quarantine(2, ""); err != nil {
		t.Fatal(err)
	}
	if j2.State != StateQuarantined || j2.Quarantine != QuarantineManual || j2.Alloc != nil {
		t.Fatalf("j2 = %v reason=%v alloc=%v", j2.State, j2.Quarantine, j2.Alloc)
	}
	if err := s.Quarantine(1, "x"); err == nil {
		t.Fatal("quarantining a running job must fail")
	}
	if err := s.Quarantine(99, "x"); err == nil {
		t.Fatal("quarantining an unknown job must fail")
	}
	if err := s.ReleaseQuarantined(1); !errors.Is(err, ErrNotQuarantined) {
		t.Fatalf("release of non-quarantined job: %v", err)
	}
	if err := s.ReleaseQuarantined(2); err != nil {
		t.Fatal(err)
	}
	if j2.State != StatePending || j2.Quarantine != QuarantineNone {
		t.Fatalf("released j2 = %v reason=%v", j2.State, j2.Quarantine)
	}
	if done := s.Run(0); done != 2 {
		t.Fatalf("completed = %d", done)
	}
}

// TestAdmissionBackpressure: submits are refused at the high watermark
// and the gate stays latched (hysteresis) until the queue drains to the
// low watermark.
func TestAdmissionBackpressure(t *testing.T) {
	s := newSchedOpts(t, FCFS, 1, 1, 4,
		WithDefense(DefenseConfig{AdmitHigh: 3, AdmitLow: 1}))
	for id := int64(1); id <= 3; id++ {
		mustSubmit(t, s, id, nodeJob(1, 4, 100))
	}
	// Queue depth 3 >= high: latch shut.
	if _, err := s.Submit(4, nodeJob(1, 4, 100)); !errors.Is(err, ErrOverload) {
		t.Fatalf("submit over high watermark: %v", err)
	}
	if !s.Overloaded() || s.Stats().OverloadRejects != 1 {
		t.Fatalf("overloaded=%v rejects=%d", s.Overloaded(), s.Stats().OverloadRejects)
	}
	s.Schedule() // j1 starts; depth 2 — still above low, still latched
	if _, err := s.Submit(5, nodeJob(1, 4, 100)); !errors.Is(err, ErrOverload) {
		t.Fatalf("submit while latched: %v", err)
	}
	if !s.Step() { // j1 completes, j2 starts; depth 1 == low
		t.Fatal("no event to step")
	}
	if _, err := s.Submit(6, nodeJob(1, 4, 100)); err != nil {
		t.Fatalf("submit after drain to low watermark: %v", err)
	}
	if s.Overloaded() {
		t.Fatal("gate still latched after draining to the low watermark")
	}
	if got := s.Stats().OverloadRejects; got != 2 {
		t.Fatalf("OverloadRejects = %d", got)
	}
}

// TestInvalidSpecRejected: structurally invalid and unknown-type specs
// bounce at submit with ErrInvalidSpec and never enter the queue.
func TestInvalidSpecRejected(t *testing.T) {
	s := newSched(t, Conservative, 1, 2, 4)
	bad := map[string]func() (int64, error){
		"zero-count": func() (int64, error) {
			_, err := s.Submit(10, nodeJob(0, 4, 10))
			return 10, err
		},
		"unknown-type": func() (int64, error) {
			_, err := s.Submit(11, jobspec.New(10, jobspec.R("gpu", 1)))
			return 11, err
		},
		"nil-spec": func() (int64, error) {
			_, err := s.Submit(12, nil)
			return 12, err
		},
	}
	for name, fn := range bad {
		id, err := fn()
		if !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("%s: err = %v", name, err)
		}
		if _, ok := s.Job(id); ok {
			t.Fatalf("%s: rejected job %d entered the table", name, id)
		}
	}
	if got := s.Stats().InvalidSpecRejects; got != 3 {
		t.Fatalf("InvalidSpecRejects = %d", got)
	}
}

// TestLadderClimbRearm white-boxes the watchdog state machine: each
// over-deadline cycle climbs one rung (capped at bounded wake), RearmAfter
// healthy cycles step back down one rung, and the accessors report the
// shed work at each rung.
func TestLadderClimbRearm(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4,
		WithDefense(DefenseConfig{CycleDeadline: time.Hour, RearmAfter: 2, BoundedWake: 5}))
	d := s.defense
	late := func() { d.observeCycle(time.Now().Add(-2 * time.Hour)) }
	ontime := func() { d.observeCycle(time.Now()) }

	if s.shedBackfill() || s.attemptBound() != 0 {
		t.Fatal("rung 0 must shed nothing")
	}
	late()
	if s.DefenseLevel() != ladderShedBackfill || !s.shedBackfill() || s.attemptBound() != 0 {
		t.Fatalf("after 1 late cycle: level=%d", s.DefenseLevel())
	}
	late()
	if s.DefenseLevel() != ladderBoundedWake || !s.shedBackfill() || s.attemptBound() != 5 {
		t.Fatalf("after 2 late cycles: level=%d bound=%d", s.DefenseLevel(), s.attemptBound())
	}
	late()
	if s.DefenseLevel() != ladderBoundedWake {
		t.Fatalf("ladder overflowed: level=%d", s.DefenseLevel())
	}
	// One healthy cycle is not enough; RearmAfter=2 steps down one rung,
	// and an intervening late cycle resets the calm streak.
	ontime()
	if s.DefenseLevel() != ladderBoundedWake {
		t.Fatal("re-armed too early")
	}
	ontime()
	if s.DefenseLevel() != ladderShedBackfill {
		t.Fatalf("after 2 healthy: level=%d", s.DefenseLevel())
	}
	ontime()
	late()
	if s.DefenseLevel() != ladderBoundedWake {
		t.Fatalf("late cycle must climb and reset calm: level=%d", s.DefenseLevel())
	}
	for i := 0; i < 4; i++ {
		ontime()
	}
	if s.DefenseLevel() != ladderNormal {
		t.Fatalf("ladder did not fully re-arm: level=%d", s.DefenseLevel())
	}
	for i := 0; i < 4; i++ {
		ontime()
	}
	if s.DefenseLevel() != ladderNormal {
		t.Fatal("healthy cycles at rung 0 must be a no-op")
	}
}

// TestWatchdogCountsDegradedCycles: with an impossible cycle deadline
// every cycle after the first degrades, and DegradedCycles counts them.
func TestWatchdogCountsDegradedCycles(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4,
		WithDefense(DefenseConfig{CycleDeadline: time.Nanosecond}))
	mustSubmit(t, s, 1, nodeJob(1, 4, 10))
	s.Schedule() // first cycle: level climbs after the cycle
	s.Schedule()
	s.Schedule()
	if s.DefenseLevel() == 0 {
		t.Fatal("watchdog never fired")
	}
	if got := s.Stats().DegradedCycles; got < 2 {
		t.Fatalf("DegradedCycles = %d", got)
	}
}

// TestShedBackfillRung: at the shed-backfill rung a conservative
// scheduler stops probing behind the blocked head — the head itself
// still reserves (EASY keeps its guarantee), but jobs after it are
// skipped instead of matched, cutting per-cycle work to O(1) probes.
func TestShedBackfillRung(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4, WithDefense(DefenseConfig{CycleDeadline: time.Hour}))
	s.defense.level = ladderShedBackfill
	mustSubmit(t, s, 1, nodeJob(2, 4, 100))
	mustSubmit(t, s, 2, nodeJob(2, 4, 50)) // head: blocks, still reserves
	mustSubmit(t, s, 3, nodeJob(1, 4, 10)) // behind the head: probe shed
	s.Schedule()
	j2, _ := s.Job(2)
	j3, _ := s.Job(3)
	if j2.State != StateReserved {
		t.Fatalf("blocked head = %v (must keep its reservation)", j2.State)
	}
	// Undegraded conservative would reserve (or backfill) j3; the shed
	// rung leaves it plain pending.
	if j3.State != StatePending {
		t.Fatalf("j3 = %v (backfill probe not shed)", j3.State)
	}
	if done := s.Run(0); done != 3 {
		t.Fatalf("completed = %d", done)
	}
}

// TestQuarantineCheckpointRoundTrip: quarantine survives Checkpoint →
// Resume with reason and message intact, the job stays out of pending,
// and release still works on the resumed scheduler.
func TestQuarantineCheckpointRoundTrip(t *testing.T) {
	s := newSchedOpts(t, Conservative, 1, 2, 4, WithDefense(DefenseConfig{}))
	s.SetMatchHook(func(id int64) {
		if id == 2 {
			panic("poisoned wire")
		}
	})
	mustSubmit(t, s, 1, nodeJob(1, 4, 100))
	mustSubmit(t, s, 2, nodeJob(1, 4, 30))
	s.Schedule()
	j2, _ := s.Job(2)
	if j2.State != StateQuarantined {
		t.Fatalf("j2 = %v", j2.State)
	}
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the scheduler over the same (still-live) traverser, as a
	// crash-recovery drill would over a restored one.
	specs := map[int64]*jobspec.Jobspec{1: nodeJob(1, 4, 100), 2: nodeJob(1, 4, 30)}
	resumed, err := Resume(s.tr, data, specs, WithDefense(DefenseConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	q, ok := resumed.Job(2)
	if !ok || q.State != StateQuarantined || q.Quarantine != QuarantinePanic {
		t.Fatalf("resumed j2 = %+v", q)
	}
	if !strings.Contains(q.QuarantineMsg, "poisoned wire") {
		t.Fatalf("resumed msg = %q", q.QuarantineMsg)
	}
	if ids := resumed.Quarantined(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("resumed Quarantined() = %v", ids)
	}
	if err := resumed.ReleaseQuarantined(2); err != nil {
		t.Fatal(err)
	}
	if done := resumed.Run(0); done != 2 {
		t.Fatalf("completed after release = %d", done)
	}
}

// TestAdversarialCheckpoint feeds corrupted and adversarial checkpoints
// to Resume: every mutation must come back as ErrCheckpoint, never a
// panic, and most critically a quarantined job must not be resurrected
// into the pending queue.
func TestAdversarialCheckpoint(t *testing.T) {
	s := newSchedOpts(t, FCFS, 1, 2, 4, WithDefense(DefenseConfig{}))
	mustSubmit(t, s, 1, nodeJob(2, 4, 100)) // running
	mustSubmit(t, s, 2, nodeJob(1, 4, 30))  // quarantined below
	mustSubmit(t, s, 3, nodeJob(1, 4, 30))  // pending
	s.Schedule()
	if err := s.Quarantine(2, "hostile"); err != nil {
		t.Fatal(err)
	}
	good, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	specs := map[int64]*jobspec.Jobspec{
		1: nodeJob(2, 4, 100), 2: nodeJob(1, 4, 30), 3: nodeJob(1, 4, 30),
	}

	// The unmutated checkpoint must resume (over the still-live
	// traverser, which holds job 1's allocation).
	if _, err := Resume(s.tr, good, specs); err != nil {
		t.Fatalf("good checkpoint: %v", err)
	}

	mutate := func(fn func(*Checkpoint)) []byte {
		var cp Checkpoint
		if err := json.Unmarshal(good, &cp); err != nil {
			t.Fatal(err)
		}
		fn(&cp)
		data, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		miss map[int64]*jobspec.Jobspec // specs override (nil = full map)
	}{
		{"quarantined-in-pending", mutate(func(cp *Checkpoint) {
			cp.Pending = append(cp.Pending, 2)
		}), nil},
		{"running-in-pending", mutate(func(cp *Checkpoint) {
			cp.Pending = append(cp.Pending, 1)
		}), nil},
		{"duplicate-pending", mutate(func(cp *Checkpoint) {
			cp.Pending = append(cp.Pending, cp.Pending[0])
		}), nil},
		{"unknown-pending", mutate(func(cp *Checkpoint) {
			cp.Pending = append(cp.Pending, 404)
		}), nil},
		{"bogus-quarantine-reason", mutate(func(cp *Checkpoint) {
			for i := range cp.Jobs {
				if cp.Jobs[i].ID == 2 {
					cp.Jobs[i].Quarantine = "bogus"
				}
			}
		}), nil},
		{"quarantined-without-spec", good, map[int64]*jobspec.Jobspec{
			1: specs[1], 3: specs[3],
		}},
		{"truncated", good[:len(good)/2], nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := specs
			if tc.miss != nil {
				sp = tc.miss
			}
			if _, err := Resume(s.tr, tc.data, sp); !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("err = %v (want ErrCheckpoint)", err)
			}
		})
	}
}

// TestJournalQuarantineReplay drives a workload through panic
// quarantine, manual quarantine, and release with the journal attached,
// then replays the record stream and asserts byte-identical checkpoints
// at every commit boundary — quarantine's leg of the WAL invariant.
func TestJournalQuarantineReplay(t *testing.T) {
	live := journalSched(t, Conservative, WithDefense(DefenseConfig{}))
	tr := &journalTrace{s: live, t: t}
	live.SetJournal(tr.sink)
	live.SetMatchHook(func(id int64) {
		if id == 3 {
			panic("journal poison")
		}
	})
	live.Atomic(func() {
		mustSubmit(t, live, 1, nodeJob(1, 4, 100))
		mustSubmit(t, live, 2, nodeJob(1, 4, 50))
		mustSubmit(t, live, 3, nodeJob(1, 4, 30))
		mustSubmit(t, live, 4, nodeJob(2, 4, 40))
		live.Schedule()
	})
	if err := live.Quarantine(4, "operator hold"); err != nil {
		t.Fatal(err)
	}
	if err := live.ReleaseQuarantined(4); err != nil {
		t.Fatal(err)
	}
	live.Atomic(func() { live.Schedule() })
	for live.Step() {
	}
	if len(tr.commits) == 0 {
		t.Fatal("no commits recorded")
	}
	j3, _ := live.Job(3)
	if j3.State != StateQuarantined {
		t.Fatalf("j3 = %v", j3.State)
	}

	for bi, n := range tr.commits {
		replay := journalSched(t, Conservative, WithDefense(DefenseConfig{}))
		for i := 0; i < n; i++ {
			if err := replay.Apply(&tr.recs[i]); err != nil {
				t.Fatalf("boundary %d: apply record %d (%s): %v", bi, i, tr.recs[i].Kind, err)
			}
		}
		got, err := replay.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(tr.refs[bi]) {
			t.Fatalf("boundary %d: checkpoint mismatch\nlive:\n%s\nreplay:\n%s", bi, tr.refs[bi], got)
		}
	}
}

// TestQuarantineReasonCodesPinned replays a hand-built RecQuarantine
// record with the literal reason code 4. The journal stores the reason as
// a number (RecQuarantine.Retries), so retiring a reason must not
// renumber the ones after it: 4 stays QuarantineManual.
func TestQuarantineReasonCodesPinned(t *testing.T) {
	s := journalSched(t, Conservative)
	for _, r := range []Rec{
		{Kind: RecSubmit, ID: 7, Spec: nodeJob(1, 4, 10)},
		{Kind: RecQuarantine, ID: 7, Retries: 4, Path: "held"},
	} {
		if err := s.Apply(&r); err != nil {
			t.Fatalf("apply %s: %v", r.Kind, err)
		}
	}
	j, _ := s.Job(7)
	if j.State != StateQuarantined || j.Quarantine != QuarantineManual || j.QuarantineMsg != "held" {
		t.Fatalf("job 7 = %v reason=%v msg=%q", j.State, j.Quarantine, j.QuarantineMsg)
	}
	for code, want := range map[int]QuarantineReason{0: QuarantineNone, 1: QuarantinePanic,
		2: QuarantineDeadline, 4: QuarantineManual} {
		if QuarantineReason(code) != want {
			t.Fatalf("reason code %d = %v, want %v", code, QuarantineReason(code), want)
		}
	}
}

// TestQuarantineReasonStrings pins the String/parse round-trip the
// checkpoint format depends on.
func TestQuarantineReasonStrings(t *testing.T) {
	for _, r := range []QuarantineReason{QuarantineNone, QuarantinePanic,
		QuarantineDeadline, QuarantineManual} {
		back, err := parseQuarantineReason(r.String())
		if err != nil || back != r {
			t.Fatalf("round-trip %v: %v, %v", r, back, err)
		}
	}
	if _, err := parseQuarantineReason("bogus"); err == nil {
		t.Fatal("bogus reason must not parse")
	}
	if QuarantineReason(200).String() != "unknown" {
		t.Fatal("out-of-range reason String")
	}
	if StateQuarantined.String() != "quarantined" {
		t.Fatalf("StateQuarantined.String() = %q", StateQuarantined.String())
	}
	if st, err := parseJobState("quarantined"); err != nil || st != StateQuarantined {
		t.Fatalf("parseJobState(quarantined) = %v, %v", st, err)
	}
}

// ladderDecisions is every job's final (state, start, end) for
// TestLadderRungDecisions, one "id:start-end" entry per job in ID order
// (a state other than completed follows the end as "/state"), by policy
// and rung. Re-record it only in a change that declares moved decisions.
var ladderDecisions = map[string]string{
	"fcfs/rung1":         "1:30-160 2:40-190 3:740-810 4:90-230 5:810-960 6:810-880 7:960-1080 8:1080-1170 9:1170-1210 10:190-330 11:1210-1370 12:230-350 13:1370-1460 14:1460-1620 15:1620-1780 16:1780-1940 17:350-420 18:330-360 19:610-740 20:330-480 21:1940-2030 22:1940-1960 23:540-610 24:540-630 25:420-540 26:1960-2110 27:2110-2140 28:2110-2180 29:2140-2220 30:2140-2280 31:2140-2220 32:2180-2260 33:2220-2300 34:2260-2320 35:2300-2380 36:2320-2400 37:2380-2420 38:2400-2500 39:2400-2470 40:2420-2580",
	"fcfs/rung2":         "1:30-160 2:40-190 3:740-810 4:90-230 5:810-960 6:960-1030 7:1030-1150 8:1150-1240 9:1240-1280 10:190-330 11:1280-1440 12:230-350 13:1440-1530 14:1530-1690 15:1690-1850 16:1850-2010 17:350-420 18:330-360 19:610-740 20:330-480 21:2010-2100 22:2100-2120 23:540-610 24:560-650 25:420-540 26:2120-2270 27:2270-2300 28:2300-2370 29:2370-2450 30:2450-2590 31:2590-2670 32:2670-2750 33:2750-2830 34:2830-2890 35:2890-2970 36:2970-3050 37:3050-3090 38:3090-3190 39:3190-3260 40:3260-3420",
	"easy/rung1":         "1:30-160 2:40-190 3:740-810 4:90-230 5:810-960 6:810-880 7:960-1080 8:1080-1170 9:1170-1210 10:190-330 11:1210-1370 12:230-350 13:1370-1460 14:1460-1620 15:1620-1780 16:1780-1940 17:350-420 18:330-360 19:610-740 20:330-480 21:1940-2030 22:1940-1960 23:540-610 24:540-630 25:420-540 26:1960-2110 27:2110-2140 28:2110-2180 29:2140-2220 30:2140-2280 31:2140-2220 32:2180-2260 33:2220-2300 34:2260-2320 35:2300-2380 36:2320-2400 37:2380-2420 38:2400-2500 39:2400-2470 40:2420-2580",
	"easy/rung2":         "1:30-160 2:40-190 3:740-810 4:90-230 5:810-960 6:810-880 7:960-1080 8:1080-1170 9:1170-1210 10:190-330 11:1210-1370 12:230-350 13:1370-1460 14:1460-1620 15:1620-1780 16:1780-1940 17:350-420 18:330-360 19:610-740 20:330-480 21:1940-2030 22:1940-1960 23:540-610 24:540-630 25:420-540 26:1960-2110 27:2110-2140 28:2110-2180 29:2140-2220 30:2180-2320 31:2220-2300 32:2300-2380 33:2320-2400 34:2380-2440 35:2400-2480 36:2440-2520 37:2480-2520 38:2520-2620 39:2620-2690 40:2690-2850",
	"conservative/rung1": "1:30-160 2:40-190 3:740-810 4:90-230 5:810-960 6:810-880 7:960-1080 8:1080-1170 9:1170-1210 10:190-330 11:1210-1370 12:230-350 13:1370-1460 14:1460-1620 15:1620-1780 16:1780-1940 17:350-420 18:330-360 19:610-740 20:330-480 21:1940-2030 22:1940-1960 23:540-610 24:540-630 25:420-540 26:1960-2110 27:2110-2140 28:2110-2180 29:2140-2220 30:2140-2280 31:2140-2220 32:2180-2260 33:2220-2300 34:2260-2320 35:2300-2380 36:2320-2400 37:2380-2420 38:2400-2500 39:2400-2470 40:2420-2580",
	"conservative/rung2": "1:30-160 2:40-190 3:740-810 4:90-230 5:810-960 6:810-880 7:960-1080 8:1080-1170 9:1170-1210 10:190-330 11:1210-1370 12:230-350 13:1370-1460 14:1460-1620 15:1620-1780 16:1780-1940 17:350-420 18:330-360 19:610-740 20:330-480 21:1940-2030 22:1940-1960 23:540-610 24:540-630 25:420-540 26:1960-2110 27:2110-2140 28:2110-2180 29:2140-2220 30:2180-2320 31:2220-2300 32:2300-2380 33:2320-2400 34:2380-2440 35:2400-2480 36:2440-2520 37:2480-2520 38:2520-2620 39:2620-2690 40:2690-2850",
}

// TestLadderRungDecisions pins the decisions of the degradation ladder's
// rungs, which the reference loop does not model: with the level held at
// shed-backfill, then at bounded wake with a bound of one attempt a
// cycle, a seeded parity workload runs to completion under every policy
// and each job must end exactly as recorded in ladderDecisions.
func TestLadderRungDecisions(t *testing.T) {
	for _, policy := range []QueuePolicy{FCFS, EASY, Conservative} {
		for _, rung := range []int{ladderShedBackfill, ladderBoundedWake} {
			label := fmt.Sprintf("%s/rung%d", policy, rung)
			s := newSchedOpts(t, policy, 1, 4, 4, WithDefense(DefenseConfig{BoundedWake: 1}))
			s.defense.level = rung
			drive(t, label, gridWorkload(7, 40), s)
			var b strings.Builder
			for id := int64(1); id <= 40; id++ {
				j, _ := s.Job(id)
				fmt.Fprintf(&b, "%d:%d-%d", id, j.StartAt, j.EndAt)
				if j.State != StateCompleted {
					fmt.Fprintf(&b, "/%s", j.State)
				}
				b.WriteByte(' ')
			}
			if s.DefenseLevel() != rung {
				t.Fatalf("%s: level moved to %d", label, s.DefenseLevel())
			}
			if got := strings.TrimSpace(b.String()); got != ladderDecisions[label] {
				t.Errorf("%s: decisions moved:\n got %q\nwant %q", label, got, ladderDecisions[label])
			}
		}
	}
}

// TestBoundedWakeCountsEveryAttempt: the bounded-wake cap counts every
// match a cycle runs. Job 5 holds a backfill signature from a cycle at
// rung 0 and is reached unblocked after job 4's attempt has spent the
// bound of one, so it waits for the next cycle instead of reserving now.
func TestBoundedWakeCountsEveryAttempt(t *testing.T) {
	s := newSchedOpts(t, EASY, 1, 3, 4, WithDefense(DefenseConfig{BoundedWake: 1}))
	mustSubmit(t, s, 1, nodeJob(2, 4, 100))
	mustSubmit(t, s, 2, nodeJob(1, 4, 100))
	mustSubmit(t, s, 3, nodeJob(2, 4, 50)) // head: reserves at 100
	mustSubmit(t, s, 4, nodeJob(1, 4, 10)) // backfill signature, hint 100
	mustSubmit(t, s, 5, nodeJob(2, 4, 10)) // backfill signature, hint 150
	s.Schedule()
	s.defense.level = ladderBoundedWake
	before := s.Stats().MatchAttempts
	s.Step() // t=100: job 3 converts, job 4 attempts and starts
	if got := s.Stats().MatchAttempts - before; got != 1 {
		t.Fatalf("cycle at t=100 ran %d match attempts, bound is 1", got)
	}
	if j, _ := s.Job(5); j.State != StatePending {
		t.Fatalf("job 5 = %v at t=100, want pending past the bound", j.State)
	}
	s.Run(0)
	if j, _ := s.Job(5); j.State != StateCompleted || j.StartAt != 150 {
		t.Fatalf("job 5 = %v from %d, want completed from 150", j.State, j.StartAt)
	}
}
