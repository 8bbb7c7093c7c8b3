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

// TestFailedMatchWritesNothing checks that the match kernel only reads: a
// commit-mode attempt that claims cores on a node and then falls short on
// memory (untracked by the filters, so the prune cannot catch it) must not
// touch a planner, and a failed allocate-or-reserve likewise: a publish
// afterwards has nothing to publish.
func TestFailedMatchWritesNothing(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 16, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	tr := newT(t, g, match.First{})
	// 12 of 16 GB on both nodes, until the horizon.
	if _, err := tr.MatchAllocate(1, jobspec.NodeLocal(2, 1, 0, 12, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	js := jobspec.NodeLocal(1, 1, 4, 8, 0, 100)
	if _, err := tr.MatchAllocate(2, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("allocate: %v, want ErrNoMatch", err)
	}
	if _, err := tr.MatchAllocateOrReserve(3, js, 0); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("allocate-or-reserve: %v, want ErrNoMatch", err)
	}
	version := g.EpochVersion()
	g.PublishEpoch()
	if v := g.EpochVersion(); v != version {
		t.Errorf("publish after failed attempts moved the epoch version %d -> %d", version, v)
	}
}

// TestEpochChurnRace is the -race epoch-churn stress: one writer thrashes
// node status (down/up) and topology (grow/shrink) while 8 workers
// allocate and cancel. Asserts no torn reads (the matcher would panic or
// the race detector fire) and monotone epoch versions.
func TestEpochChurnRace(t *testing.T) {
	g := buildSmall(t, 2, 4, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	js := jobspec.NodeLocal(1, 1, 2, 0, 0, 50)
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 120
	var jobSeq atomic.Int64
	var committed atomic.Int64
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
				if err := tr.Attach(rack0, grown); err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				if err := tr.Detach(grown.Path()); err != nil && !errors.Is(err, resgraph.ErrBusy) {
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
				id := jobSeq.Add(1)
				if _, err := tr.MatchAllocateCompiled(id, cjs, 0); err != nil {
					if !errors.Is(err, ErrNoMatch) {
						t.Errorf("allocate: %v", err)
						return
					}
					continue // no capacity: fine
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
	t.Logf("committed=%d final epoch v%d", committed.Load(), g.EpochVersion())
}
