package fluxion

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"fluxion/internal/jobspec"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
)

func TestSpawnInstance(t *testing.T) {
	parent := newFluxion(t)
	// Parent job: 2 exclusive nodes (4 cores each) + 8 GB from each
	// node's 16 GB pool.
	spec := jobspec.New(0,
		jobspec.SlotR(2,
			jobspec.R("node", 1, jobspec.R("core", 4), jobspec.R("memory", 8))))
	if _, err := parent.MatchAllocate(1, spec, 0); err != nil {
		t.Fatal(err)
	}

	child, err := parent.SpawnInstance(1,
		WithPolicy("low"),
		WithPruneFilters("ALL:core"))
	if err != nil {
		t.Fatal(err)
	}
	agg := child.Graph().Root(resgraph.Containment).Aggregates()
	if agg["node"] != 2 || agg["core"] != 8 {
		t.Fatalf("child aggregates = %v", agg)
	}
	// Partial pool grant: each child memory pool holds 8, not 16.
	if agg["memory"] != 16 {
		t.Fatalf("child memory agg = %d, want 16 (2 pools x 8 granted)", agg["memory"])
	}
	for _, m := range child.Graph().ByType("memory") {
		if m.Size != 8 {
			t.Fatalf("child memory pool size = %d", m.Size)
		}
	}
	if child.Graph().Root(resgraph.Containment).Filter() == nil {
		t.Fatal("child prune spec not applied")
	}

	// The child schedules sub-jobs within the grant.
	sub := jobspec.New(60, jobspec.SlotR(1, jobspec.R("node", 1, jobspec.R("core", 4))))
	for id := int64(1); id <= 2; id++ {
		if _, err := child.MatchAllocate(id, sub, 0); err != nil {
			t.Fatalf("child job %d: %v", id, err)
		}
	}
	if _, err := child.MatchAllocate(3, sub, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("child over-grant: %v", err)
	}
	// And can recurse another level down (paper: arbitrary depth).
	grand, err := child.SpawnInstance(1)
	if err != nil {
		t.Fatal(err)
	}
	if grand.Graph().Root(resgraph.Containment).Aggregates()["core"] != 4 {
		t.Fatalf("grandchild aggregates = %v", grand.Graph().Root(resgraph.Containment).Aggregates())
	}

	// Paths mirror the parent's.
	if child.Graph().ByPath("/cluster0/rack0/node0") == nil && child.Graph().ByPath("/cluster0/rack0/node1") == nil &&
		child.Graph().ByPath("/cluster0/rack1/node2") == nil {
		t.Fatal("child paths do not mirror parent containment")
	}
}

func TestSpawnInstanceErrors(t *testing.T) {
	parent := newFluxion(t)
	if _, err := parent.SpawnInstance(42); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := parent.MatchAllocate(1, jobspec.NodeLocal(1, 1, 2, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.SpawnInstance(1, WithRecipeYAML([]byte("x"))); err == nil {
		t.Fatal("store source accepted")
	}
	if _, err := parent.SpawnInstance(1, WithPolicy("bogus")); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := parent.SpawnInstance(1, WithPruneFilters("broken")); err == nil {
		t.Fatal("bad prune spec accepted")
	}
}

// TestSpawnInstanceOptionsLikeNew: the child resolves prune filters and
// store sources the way New does — a WithPruneSpec filter reaches the
// child, WithGraphML is refused like every other source, and the two
// prune options stay mutually exclusive.
func TestSpawnInstanceOptionsLikeNew(t *testing.T) {
	parent := newFluxion(t)
	if _, err := parent.MatchAllocate(1, jobspec.NodeLocal(1, 1, 2, 0, 0, 100), 0); err != nil {
		t.Fatal(err)
	}
	coreFilter := PruneSpec{resgraph.ALL: {"core"}}
	child, err := parent.SpawnInstance(1, WithPruneSpec(coreFilter))
	if err != nil {
		t.Fatal(err)
	}
	if child.Graph().Root(resgraph.Containment).Filter() == nil {
		t.Fatal("child dropped the WithPruneSpec filter")
	}
	if _, err := parent.SpawnInstance(1, WithGraphML([]byte("<graphml/>"))); err == nil {
		t.Fatal("WithGraphML source accepted")
	}
	if _, err := parent.SpawnInstance(1, WithPruneFilters("ALL:core"), WithPruneSpec(coreFilter)); err == nil {
		t.Fatal("WithPruneFilters and WithPruneSpec accepted together")
	}
}

func TestSpawnInstancePropertiesCarry(t *testing.T) {
	parent := newFluxion(t)
	for _, n := range parent.Graph().ByType("node") {
		n.SetProperty("perfclass", "2")
	}
	if _, err := parent.MatchAllocate(1, jobspec.New(0, jobspec.RX("node", 2, jobspec.R("core", 4))), 0); err != nil {
		t.Fatal(err)
	}
	child, err := parent.SpawnInstance(1, WithPolicy("variation"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range child.Graph().ByType("node") {
		if n.Property("perfclass") != "2" {
			t.Fatal("property lost in child")
		}
	}
}

// TestSpawnInstanceConcurrentCancel races SpawnInstance against a
// concurrent cancel of the same grant. Every outcome must be clean:
// either the spawn won the critical section and produced a child built
// from the still-live grant, or the cancel won and the spawn reports
// ErrUnknownJob. Anything else — a partial child, a panic, a race
// detector report — is the regression this test pins down.
func TestSpawnInstanceConcurrentCancel(t *testing.T) {
	spec := jobspec.New(0,
		jobspec.SlotR(2, jobspec.R("node", 1, jobspec.R("core", 4))))
	for round := 0; round < 50; round++ {
		parent := newFluxion(t)
		if _, err := parent.MatchAllocate(1, spec, 0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var spawnErr error
		var child *Fluxion
		go func() {
			defer wg.Done()
			child, spawnErr = parent.SpawnInstance(1)
		}()
		go func() {
			defer wg.Done()
			_ = parent.Cancel(1)
		}()
		wg.Wait()
		switch {
		case spawnErr == nil:
			// Spawn won: the child must reflect the whole 2-node grant.
			agg := child.Graph().Root(resgraph.Containment).Aggregates()
			if agg["node"] != 2 || agg["core"] != 8 {
				t.Fatalf("round %d: torn child aggregates %v", round, agg)
			}
		case errors.Is(spawnErr, ErrUnknownJob):
			// Cancel won: clean unknown-job error.
		default:
			t.Fatalf("round %d: %v", round, spawnErr)
		}
	}
}

// TestSpawnInstanceChurn spawns children of a stable grant while other
// goroutines churn the parent — allocating and cancelling grants whose
// subtrees attach to and detach from the same racks, each cancel
// publishing over the shared slab graph. Run under
// -race this is the regression test for the unlocked clone walk; the
// invariant is that every child mirrors exactly the stable grant no
// matter what the churn does around it.
func TestSpawnInstanceChurn(t *testing.T) {
	parent := newFluxion(t)
	// Stable grant: one full node.
	stable := jobspec.New(0,
		jobspec.SlotR(1, jobspec.R("node", 1, jobspec.R("core", 4), jobspec.R("memory", 16))))
	if _, err := parent.MatchAllocate(1, stable, 0); err != nil {
		t.Fatal(err)
	}

	const rounds = 100
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	// Churners: attach/detach single-core grants, forcing filter, planner,
	// and epoch mutations on the vertices the clone walk reads.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			churn := jobspec.New(0, jobspec.SlotR(1, jobspec.R("core", 1)))
			for i := 0; i < rounds; i++ {
				id := base + int64(i)
				if _, err := parent.MatchAllocate(id, churn, 0); err != nil {
					errs <- fmt.Errorf("churn alloc %d: %w", id, err)
					return
				}
				if err := parent.Cancel(id); err != nil {
					errs <- fmt.Errorf("churn cancel %d: %w", id, err)
					return
				}
			}
		}(1000 * int64(w+1))
	}
	// Spawner: children of the stable grant must be identical every time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			child, err := parent.SpawnInstance(1)
			if err != nil {
				errs <- fmt.Errorf("spawn %d: %w", i, err)
				return
			}
			agg := child.Graph().Root(resgraph.Containment).Aggregates()
			if agg["node"] != 1 || agg["core"] != 4 || agg["memory"] != 16 {
				errs <- fmt.Errorf("spawn %d: torn child aggregates %v", i, agg)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSpawnInstanceChildDecisionParity drives the same workload through
// a spawned child and through a standalone instance built from an
// equivalent recipe. The grant covers rack0's two nodes completely, so
// the child's graph is vertex-for-vertex the standalone system (same
// paths, same IDs, same sizes) and the scheduler must make identical
// decisions on both — states, times, and placements.
func TestSpawnInstanceChildDecisionParity(t *testing.T) {
	parent := newFluxion(t)
	grant := jobspec.New(0,
		jobspec.SlotR(2, jobspec.R("node", 1, jobspec.R("core", 4), jobspec.R("memory", 16))))
	if _, err := parent.MatchAllocate(1, grant, 0); err != nil {
		t.Fatal(err)
	}
	child, err := parent.SpawnInstance(1, WithPruneFilters("ALL:core,ALL:node"))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := New(
		WithRecipeYAML([]byte(`
name: rack0-twin
root:
  type: cluster
  with:
    - type: rack
      count: 1
      with:
        - type: node
          count: 2
          with:
            - {type: core, count: 4}
            - {type: memory, count: 1, size: 16, unit: GB}
`)),
		WithPruneFilters("ALL:core,ALL:node"))
	if err != nil {
		t.Fatal(err)
	}

	for _, qp := range []sched.QueuePolicy{sched.FCFS, sched.EASY, sched.Conservative} {
		cs, err := sched.New(child.Traverser(), qp)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := sched.New(flat.Traverser(), qp)
		if err != nil {
			t.Fatal(err)
		}
		// An oversubscribed mix: full-node, half-node, and two-node jobs
		// so backfill and reservations engage.
		for id := int64(1); id <= 12; id++ {
			spec := jobspec.New(50+10*(id%4),
				jobspec.SlotR(1+id%2, jobspec.R("node", 1, jobspec.R("core", 2+2*(id%2)))))
			if _, err := cs.Submit(id, spec); err != nil {
				t.Fatalf("%s child submit %d: %v", qp, id, err)
			}
			if _, err := fs.Submit(id, spec); err != nil {
				t.Fatalf("%s flat submit %d: %v", qp, id, err)
			}
		}
		cs.Run(0)
		fs.Run(0)
		for id := int64(1); id <= 12; id++ {
			cj, _ := cs.Job(id)
			fj, _ := fs.Job(id)
			if cj == nil || fj == nil {
				t.Fatalf("%s job %d missing (child=%v flat=%v)", qp, id, cj, fj)
			}
			if cj.State != fj.State || cj.StartAt != fj.StartAt || cj.EndAt != fj.EndAt {
				t.Fatalf("%s job %d diverged: %v@[%d,%d] vs %v@[%d,%d]",
					qp, id, cj.State, cj.StartAt, cj.EndAt, fj.State, fj.StartAt, fj.EndAt)
			}
			if cj.Alloc != nil && fj.Alloc != nil {
				if got, want := nodePaths(cj), nodePaths(fj); got != want {
					t.Fatalf("%s job %d placement diverged: %s vs %s", qp, id, got, want)
				}
			}
		}
		// Reset both instances for the next policy.
		for id := int64(1); id <= 12; id++ {
			_, _ = cs.Withdraw(id)
			_, _ = fs.Withdraw(id)
		}
	}
}

func nodePaths(j *sched.Job) string {
	var paths []string
	for _, v := range j.Alloc.Nodes() {
		paths = append(paths, v.Path())
	}
	sort.Strings(paths)
	return fmt.Sprint(paths)
}

func TestSpawnInstanceDeepChain(t *testing.T) {
	// Recurse four levels, halving the grant each time.
	f := newFluxion(t)
	cur := f
	want := int64(16) // 4 nodes x 4 cores
	for depth := 0; depth < 4 && want >= 2; depth++ {
		n := want / 4 // whole nodes to grab
		if n == 0 {
			break
		}
		spec := jobspec.New(0, jobspec.RX("node", n, jobspec.R("core", 4)))
		if _, err := cur.MatchAllocate(1, spec, 0); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		child, err := cur.SpawnInstance(1, WithPruneFilters("ALL:core,ALL:node"))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		got := child.Graph().Root(resgraph.Containment).Aggregates()["core"]
		if got != n*4 {
			t.Fatalf("depth %d: cores = %d, want %d", depth, got, n*4)
		}
		cur = child
		want = n * 4
	}
}
