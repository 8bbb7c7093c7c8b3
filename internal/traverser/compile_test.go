package traverser

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fluxion/internal/jobspec"
	"fluxion/internal/match"
)

// Tests for the compiled-jobspec entry points and the match kernel's
// scratch-state hygiene: decision parity between the compiled and
// uncompiled paths, moldable-slot edge cases, rollback restoration, and
// cross-graph rejection.

// randomSpec draws one of a few request shapes with randomized counts,
// deliberately including infeasible ones so error parity is exercised
// too.
func randomSpec(rng *rand.Rand) *jobspec.Jobspec {
	dur := int64(rng.Intn(200) + 1)
	switch rng.Intn(5) {
	case 0:
		return jobspec.NodeLocal(int64(rng.Intn(3)+1), int64(rng.Intn(2)+1),
			int64(rng.Intn(5)+1), int64(rng.Intn(20)), 0, dur)
	case 1:
		return jobspec.New(dur, jobspec.SlotR(int64(rng.Intn(6)+1),
			jobspec.R("core", int64(rng.Intn(3)+1))))
	case 2:
		return jobspec.New(dur, jobspec.R("node", int64(rng.Intn(3)+1),
			jobspec.Moldable("core", int64(rng.Intn(2)+1), int64(rng.Intn(4)+2))))
	case 3:
		return jobspec.New(dur, jobspec.Moldable(jobspec.Slot, 1, int64(rng.Intn(5)+1),
			jobspec.R("core", 2), jobspec.R("memory", int64(rng.Intn(6)+1))))
	default:
		return jobspec.New(dur, jobspec.RX("node", int64(rng.Intn(3)+1),
			jobspec.R("core", int64(rng.Intn(5)+1))))
	}
}

// TestCompiledUncompiledEquivalence drives two traversers over identical
// graphs with the same random job stream — one through MatchAllocate
// (which compiles internally per call), one through Compile +
// MatchAllocateCompiled — and requires identical decisions, placements,
// and errors at every step.
func TestCompiledUncompiledEquivalence(t *testing.T) {
	policies := []match.Policy{match.First{}, match.HighID{}, match.LowID{}, match.Locality{}}
	for _, pol := range policies {
		t.Run(pol.Name(), func(t *testing.T) {
			g1 := buildSmall(t, 2, 2, 4, 16, defaultSpec())
			g2 := buildSmall(t, 2, 2, 4, 16, defaultSpec())
			tr1 := newT(t, g1, pol)
			tr2 := newT(t, g2, pol)
			rng := rand.New(rand.NewSource(42))
			for job := int64(1); job <= 40; job++ {
				js := randomSpec(rng)
				cjs, cerr := tr2.Compile(js)
				if cerr != nil {
					t.Fatalf("job %d: compile failed: %v", job, cerr)
				}

				// Dry-run parity on both traversers before mutating.
				ok1, err1 := tr1.MatchSatisfy(js)
				ok2, err2 := tr2.MatchSatisfyCompiled(cjs)
				if ok1 != ok2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("job %d: satisfy diverged: (%v,%v) vs (%v,%v)", job, ok1, err1, ok2, err2)
				}

				a1, err1 := tr1.MatchAllocate(job, js, 0)
				a2, err2 := tr2.MatchAllocateCompiled(job, cjs, 0)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("job %d: allocate diverged: %v vs %v\nspec: %s", job, err1, err2, js)
				}
				if err1 != nil {
					if !errors.Is(err1, ErrNoMatch) || !errors.Is(err2, ErrNoMatch) {
						t.Fatalf("job %d: unexpected errors %v / %v", job, err1, err2)
					}
					continue
				}
				if d1, d2 := a1.Describe(), a2.Describe(); d1 != d2 {
					t.Fatalf("job %d: placements diverged:\nuncompiled: %s\ncompiled:   %s\nspec: %s", job, d1, d2, js)
				}
				// Occasionally cancel to exercise rollback/cache paths.
				if job%3 == 0 {
					if err := tr1.Cancel(job); err != nil {
						t.Fatal(err)
					}
					if err := tr2.Cancel(job); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

func TestCompiledReuseAcrossCalls(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, defaultSpec())
	tr := newT(t, g, match.First{})
	cjs, err := tr.Compile(jobspec.NodeLocal(1, 1, 4, 4, 0, 50))
	if err != nil {
		t.Fatal(err)
	}
	// One Compiled may back many jobs concurrently or sequentially.
	for job := int64(1); job <= 2; job++ {
		if _, err := tr.MatchAllocateCompiled(job, cjs, 0); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
	}
	if _, err := tr.MatchAllocateCompiled(3, cjs, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("3rd job on 2 nodes' worth of cores: err = %v, want ErrNoMatch", err)
	}
}

func TestCheckCompiledRejectsForeignGraph(t *testing.T) {
	g1 := buildSmall(t, 1, 1, 2, 0, defaultSpec())
	g2 := buildSmall(t, 1, 1, 2, 0, defaultSpec())
	tr1 := newT(t, g1, match.First{})
	tr2 := newT(t, g2, match.First{})
	cjs, err := tr1.Compile(jobspec.New(10, jobspec.R("core", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.MatchAllocateCompiled(1, cjs, 0); err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Fatalf("foreign compiled spec: err = %v", err)
	}
	if _, err := tr2.MatchAllocateOrReserveCompiled(1, cjs, 0); err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Fatalf("foreign compiled reserve: err = %v", err)
	}
	if _, err := tr2.MatchSatisfyCompiled(cjs); err == nil {
		t.Fatal("foreign compiled satisfy accepted")
	}
	if _, err := tr2.MatchAllocateCompiled(1, nil, 0); err == nil {
		t.Fatal("nil compiled spec accepted")
	}
}

// TestMoldableSlotPartialGrant exercises slot-level MinCount: the kernel
// must grant as many slot instances as fit, down to Min, and fail below
// it.
func TestMoldableSlotPartialGrant(t *testing.T) {
	g := buildSmall(t, 1, 1, 4, 0, defaultSpec()) // one node, 4 cores
	tr := newT(t, g, match.First{})

	// slot[4, min 2]{core[2]}: only 2 instances fit on 4 cores.
	js := jobspec.New(100, jobspec.Moldable(jobspec.Slot, 2, 4, jobspec.R("core", 2)))
	alloc, err := tr.MatchAllocate(1, js, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Units("core"); got != 4 {
		t.Fatalf("granted %d core units, want 4 (2 of 4 slots)", got)
	}
	if err := tr.Cancel(1); err != nil {
		t.Fatal(err)
	}

	// Raising the floor above what fits must fail and leave no residue.
	js = jobspec.New(100, jobspec.Moldable(jobspec.Slot, 3, 4, jobspec.R("core", 2)))
	if _, err := tr.MatchAllocate(2, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("min 3 slots on 2-slot capacity: err = %v", err)
	}
	// Full capacity must still be there after the failed attempt.
	alloc, err = tr.MatchAllocate(3, jobspec.New(100, jobspec.SlotR(2, jobspec.R("core", 2))), 0)
	if err != nil {
		t.Fatalf("capacity not restored after failed moldable match: %v", err)
	}
	if got := alloc.Units("core"); got != 4 {
		t.Fatalf("granted %d core units after restore, want 4", got)
	}
}

// TestRollbackPastCollectionRestoresState forces a deep partial match
// that rolls back across cached candidate lists: the first slot instance
// claims a socket exclusively, the second fails, and the whole attempt
// unwinds. The planners and candidate caches must be as if the attempt
// never happened.
func TestRollbackPastCollectionRestoresState(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec()) // 2 nodes × 4 cores
	tr := newT(t, g, match.First{})

	// 2 exclusive nodes with 3 cores each fits; 3 does not (partial match
	// of 2 instances must roll back completely).
	infeasible := jobspec.New(100, jobspec.RX("node", 3, jobspec.R("core", 3)))
	if _, err := tr.MatchAllocate(1, infeasible, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
	// After the rollback both nodes must still be exclusively allocatable.
	feasible := jobspec.New(100, jobspec.RX("node", 2, jobspec.R("core", 3)))
	alloc, err := tr.MatchAllocate(2, feasible, 0)
	if err != nil {
		t.Fatalf("state not restored after rolled-back match: %v", err)
	}
	if n := len(alloc.Nodes()); n != 2 {
		t.Fatalf("got %d nodes, want 2", n)
	}
	// Planner invariant: cancel and verify everything is free again.
	if err := tr.Cancel(2); err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Vertices() {
		avail, err := v.Planner().AvailDuring(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if avail != v.Size {
			t.Fatalf("%s: avail %d != size %d after full cancel", v, avail, v.Size)
		}
	}
}

func TestIsTraversalOrder(t *testing.T) {
	if !match.IsTraversalOrder(match.First{}) {
		t.Fatal("First must be traversal-ordered")
	}
	for _, p := range []match.Policy{match.HighID{}, match.LowID{}, match.Locality{}, match.Variation{}} {
		if match.IsTraversalOrder(p) {
			t.Fatalf("%s must not be traversal-ordered", p.Name())
		}
	}
}
