package chaos_test

import (
	"errors"
	"testing"
	"time"

	"fluxion/internal/chaos"
	"fluxion/internal/grug"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/trace"
	"fluxion/internal/traverser"
)

// TestChaosStress fires a seeded chaos schedule at a scheduler with every
// defense armed — run with -race. Injected panics hit match attempts,
// slow matches trip the cycle watchdog, and malformed specs hammer the
// validator. Afterward: every job must be in
// a terminal state, every vertex planner and pruning filter must pass
// CheckInvariants (a quarantined job that leaked partial claims would
// fail here), and the degradation ladder must fully re-arm once the
// pressure clears.
func TestChaosStress(t *testing.T) {
	g, err := grug.BuildGraph(grug.Small(2, 4, 8, 0, 0), 0, 1<<40,
		resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(tr, sched.Conservative,
		sched.WithDefense(sched.DefenseConfig{
			CycleDeadline: 100 * time.Microsecond,
			AdmitHigh:     256,
		}))
	if err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{
		Seed:          42,
		PanicFrac:     0.20,
		SlowFrac:      0.30,
		SlowDelay:     500 * time.Microsecond,
		MalformedFrac: 0.10,
	}
	s.SetMatchHook(plan.MatchHook())

	jobs := trace.Synthesize(150, 4, 8, 9)
	submitted := map[int64]bool{}
	for i, j := range jobs {
		spec := j.Jobspec()
		if plan.Malformed(j.ID) {
			spec = plan.MalformedSpec(j.ID)
		}
		if _, err := s.Submit(j.ID, spec); err != nil {
			if !errors.Is(err, sched.ErrInvalidSpec) && !errors.Is(err, sched.ErrOverload) {
				t.Fatalf("job %d: untyped submit error: %v", j.ID, err)
			}
			continue
		}
		submitted[j.ID] = true
		// Interleave cycles and event steps with arrivals so quarantine,
		// degradation, and re-planning all happen mid-stream.
		if i%10 == 9 {
			s.Schedule()
			for k := 0; k < 3 && s.Step(); k++ {
			}
		}
	}
	s.Run(0)

	for id := range submitted {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("submitted job %d vanished", id)
		}
		switch j.State {
		case sched.StateCompleted, sched.StateUnsatisfiable, sched.StateQuarantined:
		default:
			t.Fatalf("job %d not terminal after drain: %v", id, j.State)
		}
		if plan.Panics(id) && j.State != sched.StateQuarantined {
			t.Fatalf("panicking job %d ended %v", id, j.State)
		}
	}
	ss := s.Stats()
	if ss.Quarantined == 0 || ss.InvalidSpecRejects == 0 {
		t.Fatalf("chaos did not bite: %+v", ss)
	}
	if ss.DegradedCycles == 0 {
		t.Fatal("watchdog never degraded despite 500µs slow matches against a 100µs deadline")
	}

	// Invariants: no partial claims, no corrupted planner/filter state.
	for _, v := range g.Vertices() {
		if p := v.Planner(); p != nil {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("vertex %s planner: %v", v.Path(), err)
			}
		}
		if f := v.Filter(); f != nil {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("vertex %s filter: %v", v.Path(), err)
			}
		}
	}

	// Pressure is gone (queue drained, hook idle on an empty queue): the
	// ladder must step all the way back down within a bounded number of
	// healthy cycles.
	for i := 0; i < 200 && s.DefenseLevel() > 0; i++ {
		s.Schedule()
	}
	if lvl := s.DefenseLevel(); lvl != 0 {
		t.Fatalf("watchdog did not re-arm: level=%d after pressure cleared", lvl)
	}
}
