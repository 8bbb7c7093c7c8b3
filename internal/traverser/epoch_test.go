package traverser

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// TestEpochCommitFastPath verifies the MVCC commit protocol end to end: a
// speculation against a stable epoch commits without per-vertex
// re-validation, a speculation whose capacity was taken conflicts, and a
// speculation whose node went down conflicts.
func TestEpochCommitFastPath(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.NodeLocal(1, 1, 4, 0, 0, 100)
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}

	// Stable pin: nothing changed between speculation and commit.
	ep := tr.PinEpoch()
	spec, err := tr.MatchSpeculateCompiledEpoch(1, cjs, 0, ep)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(spec); err != nil {
		t.Fatalf("stable commit: %v", err)
	}
	if g.EpochVersion() <= ep.Version() {
		t.Fatal("commit did not publish an epoch transition")
	}

	// Capacity conflict: two speculations against the same epoch both
	// want the one remaining node; the second must fail at commit and
	// the failure must roll back cleanly (a later job still fits).
	ep2 := tr.PinEpoch()
	specA, err := tr.MatchSpeculateCompiledEpoch(2, cjs, 0, ep2)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := tr.MatchSpeculateCompiledEpoch(3, cjs, 0, ep2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(specA); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := tr.Commit(specB); !errors.Is(err, ErrConflict) {
		t.Fatalf("second commit = %v, want ErrConflict", err)
	}
	if err := tr.Cancel(2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocateCompiled(3, cjs, 0); err != nil {
		t.Fatalf("post-conflict state corrupt: %v", err)
	}
	if err := tr.Cancel(3); err != nil {
		t.Fatal(err)
	}

	// Down conflict: the speculated node goes down before commit.
	ep3 := tr.PinEpoch()
	specC, err := tr.MatchSpeculateCompiledEpoch(4, cjs, 0, ep3)
	if err != nil {
		t.Fatal(err)
	}
	if len(specC.Nodes()) != 1 {
		t.Fatalf("nodes = %v", specC.Nodes())
	}
	if _, err := tr.MarkDown(specC.Nodes()[0].Path()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(specC); !errors.Is(err, ErrConflict) {
		t.Fatalf("down commit = %v, want ErrConflict", err)
	}
}

// TestEpochSpeculationSeesPinnedState verifies speculation reads the
// pinned epoch, not live state: capacity granted after the pin is
// invisible, capacity taken after the pin is still offered (and caught at
// commit instead).
func TestEpochSpeculationSeesPinnedState(t *testing.T) {
	g := buildSmall(t, 1, 1, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.NodeLocal(1, 1, 4, 0, 0, 100)
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single node, then pin: the epoch has no capacity.
	if _, err := tr.MatchAllocateCompiled(1, cjs, 0); err != nil {
		t.Fatal(err)
	}
	ep := tr.PinEpoch()
	// Free the capacity after the pin; the pinned epoch must still fail.
	if err := tr.Cancel(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchSpeculateCompiledEpoch(2, cjs, 0, ep); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("speculation against stale full epoch = %v, want ErrNoMatch", err)
	}
	// A fresh pin sees the freed capacity.
	if spec, err := tr.MatchSpeculateCompiledEpoch(2, cjs, 0, tr.PinEpoch()); err != nil {
		t.Fatalf("fresh pin: %v", err)
	} else if err := tr.Commit(spec); err != nil {
		t.Fatal(err)
	}
}

// TestUncommittedSpeculationLeavesNoTrace drops a batch of speculations
// against one pin without committing any: the epoch version, every
// planner's and filter's span count, the delta stream, and the job table
// must be exactly as before — dropping a speculation is the whole of
// abandoning it — and a fresh speculation must still commit.
func TestUncommittedSpeculationLeavesNoTrace(t *testing.T) {
	g := buildSmall(t, 2, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	tr.EnableSteering()
	cjs, err := tr.Compile(jobspec.NodeLocal(1, 1, 2, 0, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	// Standing state, so the span counts being compared are not all zero.
	if _, err := tr.MatchAllocateCompiled(1, cjs, 0); err != nil {
		t.Fatal(err)
	}
	var deltas int
	g.SetDeltaSink(func(resgraph.Delta) { deltas++ })
	spans := func() []int {
		var out []int
		for _, v := range g.Vertices() {
			out = append(out, v.Planner().SpanCount())
			if f := v.Filter(); f != nil {
				out = append(out, f.SpanCount())
			}
		}
		return out
	}

	ep := tr.PinEpoch()
	version, builds, before := g.EpochVersion(), g.EpochBuilds(), spans()
	const k = 16
	for id := int64(2); id < 2+k; id++ {
		spec, err := tr.MatchSpeculateCompiledEpoch(id, cjs, 0, ep)
		if err != nil {
			t.Fatalf("speculation %d: %v", id, err)
		}
		if spec.Units("core") != 2 {
			t.Fatalf("speculation %d: %s", id, spec.Describe())
		}
	}
	if v := g.EpochVersion(); v != version {
		t.Errorf("epoch version %d -> %d", version, v)
	}
	if b := g.EpochBuilds(); b != builds {
		t.Errorf("epoch builds %d -> %d", builds, b)
	}
	after := spans()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("span counts changed: %v -> %v", before, after)
		}
	}
	if deltas != 0 {
		t.Errorf("%d deltas published by uncommitted speculations", deltas)
	}
	if n := tr.JobCount(); n != 1 {
		t.Errorf("JobCount = %d, want 1", n)
	}

	spec, err := tr.MatchSpeculateCompiledEpoch(2+k, cjs, 0, tr.PinEpoch())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(spec); err != nil {
		t.Fatalf("fresh speculation after %d dropped ones: %v", k, err)
	}
	if n := tr.JobCount(); n != 2 {
		t.Errorf("JobCount after commit = %d, want 2", n)
	}
	// The commit's publish flushes any buffered delta, and an immediate
	// allocation emits none of its own, so the sink must still be silent.
	if deltas != 0 {
		t.Errorf("%d deltas flushed by the commit after the dropped speculations", deltas)
	}
}

// TestEpochChurnRace is the -race epoch-churn stress: one writer thrashes
// node status (down/up) and topology (grow/shrink) while 8 workers
// speculate against pinned snapshots and commit. Asserts no torn reads
// (the matcher would panic or the race detector fire), monotone epoch
// versions, and that every committed allocation validated against live
// state (its vertices were up at commit).
func TestEpochChurnRace(t *testing.T) {
	g := buildSmall(t, 2, 4, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	tr.EnableSteering()
	js := jobspec.NodeLocal(1, 1, 2, 0, 0, 50)
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 120
	var jobSeq atomic.Int64
	var committed atomic.Int64
	var conflicts atomic.Int64
	stop := make(chan struct{})

	// Version observer: published epochs never go backwards.
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		last := uint64(0)
		for {
			v := g.EpochVersion()
			if v < last {
				t.Errorf("epoch version regressed: %d -> %d", last, v)
				return
			}
			last = v
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	// Writer: down/up a rotating node, and periodically grow a scratch
	// node onto rack0 then shrink it back off.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rack0 := g.ByPath("/cluster0/rack0")
		node0 := rack0.Children(resgraph.Containment)[0]
		for i := 0; i < rounds; i++ {
			if _, err := tr.MarkDown(node0.Path()); err != nil {
				t.Errorf("down: %v", err)
				return
			}
			if err := tr.MarkUp(node0.Path()); err != nil {
				t.Errorf("up: %v", err)
				return
			}
			if i%10 == 0 {
				grown := g.MustAddVertex("node", -1, 1)
				c := g.MustAddVertex("core", -1, 1)
				if err := g.AddContainment(grown, c); err != nil {
					t.Errorf("grow: %v", err)
					return
				}
				if err := g.Attach(rack0, grown); err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				if err := g.Detach(grown); err != nil && !errors.Is(err, resgraph.ErrBusy) {
					t.Errorf("detach: %v", err)
					return
				}
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ep := tr.PinEpoch()
				id := jobSeq.Add(1)
				spec, err := tr.MatchSpeculateCompiledEpoch(id, cjs, 0, ep)
				if err != nil {
					continue // epoch had no capacity: fine
				}
				if err := tr.Commit(spec); err != nil {
					if !errors.Is(err, ErrConflict) {
						t.Errorf("commit: %v", err)
						return
					}
					conflicts.Add(1)
					continue
				}
				committed.Add(1)
				if i%3 != 0 {
					// The writer's MarkDown evicts allocations on the downed
					// node, so our job may already be gone — that's the
					// documented down-node semantics, not a test failure.
					if err := tr.Cancel(id); err != nil && !errors.Is(err, ErrUnknownJob) {
						t.Errorf("cancel: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	obs.Wait()
	if committed.Load() == 0 {
		t.Fatal("stress committed nothing")
	}
	t.Logf("committed=%d conflicts=%d final epoch v%d",
		committed.Load(), conflicts.Load(), g.EpochVersion())
}

// TestEpochDeepImmutability pins one epoch and hashes every vertex's
// snapshot state, then runs 1k concurrent commit/cancel transitions and
// re-hashes: the pinned epoch must be bit-identical.
func TestEpochDeepImmutability(t *testing.T) {
	g := buildSmall(t, 2, 4, 8, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.NodeLocal(1, 1, 2, 0, 0, 40)
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}
	// Some standing state so the epoch is not trivial.
	if _, err := tr.MatchAllocateCompiled(1, cjs, 0); err != nil {
		t.Fatal(err)
	}

	ep := tr.PinEpoch()
	hash := func() uint64 {
		var h uint64 = 14695981039346656037
		mix := func(x uint64) {
			h ^= x
			h *= 1099511628211
		}
		for uid := int64(0); uid < ep.UniqBound(); uid++ {
			up := uint64(0)
			if ep.Up(uid) {
				up = 1
			}
			in, out := ep.TreeInterval(uid)
			mix(up | uint64(uint32(in))<<8 | uint64(uint32(out))<<24)
			if p := ep.Plan(uid); p != nil {
				for t := int64(0); t < 200; t += 20 {
					a, _ := p.AvailDuring(t, 10)
					mix(uint64(a) + 31*uint64(t))
				}
			}
		}
		return h
	}
	before := hash()

	var wg sync.WaitGroup
	var seq atomic.Int64
	seq.Store(1)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				id := seq.Add(1)
				if alloc, err := tr.MatchSpeculateCompiledEpoch(id, cjs, 0, tr.PinEpoch()); err == nil {
					if err := tr.Commit(alloc); err == nil {
						_ = tr.Cancel(id)
					}
				}
			}
		}()
	}
	// Interleaved readers verify mid-churn, not just at the end.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if h := hash(); h != before {
					t.Errorf("pinned epoch hash diverged mid-churn")
					return
				}
			}
		}()
	}
	wg.Wait()
	if h := hash(); h != before {
		t.Fatalf("pinned epoch mutated by 1k concurrent transitions: %x != %x", h, before)
	}
}

// TestEpochPinNeverTearsAnAllocation races pinners against the
// traverser's mutating operations. Epochs are built when pinned, from
// live planners, so the pin must land between two operations: every job
// here takes all four cores of one node, and a pinned epoch may show a
// node with zero or four busy cores — never a half-installed allocation —
// with every ancestor filter agreeing with the cores beneath it.
func TestEpochPinNeverTearsAnAllocation(t *testing.T) {
	g := buildSmall(t, 2, 4, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	tr.EnableSteering()
	cjs, err := tr.Compile(jobspec.NodeLocal(1, 1, 4, 0, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	coreID := g.Types().ID("core")
	nodes := g.ByType("node")
	root := g.Root(resgraph.Containment)
	busyCores := func(ep *resgraph.Epoch, v *resgraph.Vertex) int64 {
		a, err := ep.Plan(v.UniqID).AvailDuring(0, 100)
		if err != nil {
			t.Errorf("%s: %v", v.Path(), err)
		}
		return v.Size - a
	}
	filterFree := func(ep *resgraph.Epoch, v *resgraph.Vertex) int64 {
		a, err := ep.Filter(v.UniqID).ByID(coreID).AvailDuring(0, 100)
		if err != nil {
			t.Errorf("%s filter: %v", v.Path(), err)
		}
		return a
	}
	check := func(ep *resgraph.Epoch) bool {
		var total int64
		for _, n := range nodes {
			var busy int64
			for _, c := range n.Children(resgraph.Containment) {
				busy += busyCores(ep, c)
			}
			if busy != 0 && busy != 4 {
				t.Errorf("epoch v%d: %s has %d of 4 cores busy — torn allocation", ep.Version(), n.Path(), busy)
				return false
			}
			if free := filterFree(ep, n); free != 4-busy {
				t.Errorf("epoch v%d: %s filter says %d cores free, cores say %d", ep.Version(), n.Path(), free, 4-busy)
				return false
			}
			total += busy
		}
		if free := filterFree(ep, root); free != int64(4*len(nodes))-total {
			t.Errorf("epoch v%d: root filter says %d cores free, cores say %d", ep.Version(), free, int64(4*len(nodes))-total)
			return false
		}
		return true
	}

	const rounds = 400
	var seq atomic.Int64
	var writers, pinners sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var held []int64
			for i := 0; i < rounds; i++ {
				id := seq.Add(1)
				var err error
				if w == 0 {
					_, err = tr.MatchAllocateCompiled(id, cjs, 0)
				} else if spec, serr := tr.MatchSpeculateCompiledEpoch(id, cjs, 0, tr.PinEpoch()); serr != nil {
					err = serr
				} else {
					err = tr.Commit(spec)
				}
				if err == nil {
					held = append(held, id)
				} else if !errors.Is(err, ErrNoMatch) && !errors.Is(err, ErrConflict) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if len(held) > 2 || (err != nil && len(held) > 0) {
					if err := tr.Cancel(held[0]); err != nil {
						t.Errorf("cancel: %v", err)
						return
					}
					held = held[1:]
				}
			}
		}(w)
	}
	var pins atomic.Int64
	for p := 0; p < 2; p++ {
		pinners.Add(1)
		go func() {
			defer pinners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !check(tr.PinEpoch()) {
					return
				}
				pins.Add(1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	pinners.Wait()
	if pins.Load() == 0 || g.EpochBuilds() < 2 {
		t.Fatalf("%d pins, %d builds: the race never happened", pins.Load(), g.EpochBuilds())
	}
	check(tr.PinEpoch())
}
