package chaos_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"fluxion/internal/chaos"
	"fluxion/internal/grug"
	"fluxion/internal/sched"
	"fluxion/internal/simcli"
	"fluxion/internal/trace"
)

// TestDecisionParity is the self-defense acceptance property: a chaos
// run with defenses enabled (panic fences, quarantine, submit
// validation) schedules every non-poisoned job identically — same
// state, start, and end — to a defense-free run whose trace simply
// never contained the poisoned jobs. Quarantine must be invisible to
// the surviving schedule, across every queue policy.
func TestDecisionParity(t *testing.T) {
	jobs := trace.Synthesize(150, 4, 8, 11)
	plan := &chaos.Plan{
		Seed:          31,
		PanicFrac:     0.15,
		SlowFrac:      0.10,
		SlowDelay:     50 * time.Microsecond,
		MalformedFrac: 0.12,
	}
	for _, qp := range []sched.QueuePolicy{sched.FCFS, sched.EASY, sched.Conservative} {
		t.Run(fmt.Sprintf("%s-incremental", qp), func(t *testing.T) {
			base := simcli.Config{
				Recipe:      grug.Small(2, 4, 8, 0, 0),
				QueuePolicy: qp,
				Chaos:       plan,
			}
			dryCfg := base
			dryCfg.ChaosDry = true
			defended, err := simcli.Run(base, jobs, io.Discard)
			if err != nil {
				t.Fatalf("defended run: %v", err)
			}
			dry, err := simcli.Run(dryCfg, jobs, io.Discard)
			if err != nil {
				t.Fatalf("dry run: %v", err)
			}

			quarantined := 0
			for _, j := range jobs {
				dj, dok := defended.Scheduler.Job(j.ID)
				bj, bok := dry.Scheduler.Job(j.ID)
				switch {
				case plan.Malformed(j.ID):
					// Rejected at submit in the defended run,
					// filtered from the dry trace.
					if dok {
						t.Errorf("malformed job %d entered the defended run (%v)", j.ID, dj.State)
					}
					if bok {
						t.Errorf("malformed job %d entered the dry run", j.ID)
					}
				case plan.Panics(j.ID):
					if !dok || dj.State != sched.StateQuarantined || dj.Quarantine != sched.QuarantinePanic {
						t.Errorf("panicking job %d not quarantined in defended run", j.ID)
					} else {
						quarantined++
					}
					if bok {
						t.Errorf("panicking job %d present in dry run", j.ID)
					}
				default:
					if !dok || !bok {
						t.Fatalf("job %d missing: defended=%v dry=%v", j.ID, dok, bok)
					}
					if dj.State != bj.State || dj.StartAt != bj.StartAt || dj.EndAt != bj.EndAt {
						t.Errorf("parity: job %d = %v@[%d,%d] defended, %v@[%d,%d] dry",
							j.ID, dj.State, dj.StartAt, dj.EndAt, bj.State, bj.StartAt, bj.EndAt)
					}
				}
			}
			// The property is vacuous if the plan poisoned nothing.
			if quarantined == 0 {
				t.Fatal("chaos plan quarantined nothing — property did not bite")
			}
			if got := defended.Scheduler.Stats().Quarantined; int(got) != quarantined {
				t.Errorf("Stats().Quarantined = %d, counted %d", got, quarantined)
			}
			if defended.Scheduler.Stats().InvalidSpecRejects == 0 {
				t.Error("no malformed specs rejected — validation leg did not bite")
			}
		})
	}
}

// TestPlanDeterminism pins the seeded-hash contract: the same plan
// answers identically across calls, and FilterTrace removes exactly the
// poisoned set.
func TestPlanDeterminism(t *testing.T) {
	plan := &chaos.Plan{Seed: 7, PanicFrac: 0.2, SlowFrac: 0.3, MalformedFrac: 0.25}
	jobs := trace.Synthesize(500, 4, 8, 3)
	poisoned := 0
	for _, j := range jobs {
		for i := 0; i < 3; i++ {
			if plan.Panics(j.ID) != plan.Panics(j.ID) || plan.Slow(j.ID) != plan.Slow(j.ID) ||
				plan.Malformed(j.ID) != plan.Malformed(j.ID) {
				t.Fatalf("job %d: fault decision not stable", j.ID)
			}
		}
		if plan.Poisoned(j.ID) {
			poisoned++
			if spec := plan.MalformedSpec(j.ID); spec == nil {
				t.Fatalf("job %d: no malformed spec", j.ID)
			}
		}
	}
	// ~38% of 500 should be poisoned; a hash catastrophe would show up
	// as an empty or full set.
	if poisoned < 100 || poisoned > 300 {
		t.Fatalf("poisoned = %d of %d — hash skew", poisoned, len(jobs))
	}
	kept := plan.FilterTrace(jobs)
	if len(kept)+poisoned != len(jobs) {
		t.Fatalf("FilterTrace kept %d, poisoned %d, total %d", len(kept), poisoned, len(jobs))
	}
	for _, j := range kept {
		if plan.Poisoned(j.ID) {
			t.Fatalf("FilterTrace kept poisoned job %d", j.ID)
		}
	}
	other := &chaos.Plan{Seed: 8, PanicFrac: 0.2, SlowFrac: 0.3, MalformedFrac: 0.25}
	diff := 0
	for _, j := range jobs {
		if plan.Poisoned(j.ID) != other.Poisoned(j.ID) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical poison sets")
	}
}

// TestMalformedSpecsAllRejected: every shape the malformed-spec stream
// emits must fail submit-time validation — if one ever became valid the
// chaos accounting (and the parity baseline) would silently drift.
func TestMalformedSpecsAllRejected(t *testing.T) {
	cfg := simcli.Config{Recipe: grug.Small(1, 2, 8, 0, 0)}
	res, err := simcli.Run(cfg, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	plan := &chaos.Plan{Seed: 5}
	for id := int64(0); id < 64; id++ {
		if err := res.Fluxion.ValidateSpec(plan.MalformedSpec(id)); err == nil {
			t.Errorf("malformed spec for job %d validated cleanly", id)
		}
	}
}
