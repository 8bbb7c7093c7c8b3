package resgraph

import (
	"sync"
	"testing"
)

// buildWide constructs cluster0 -> rack{0,1} -> 40 nodes each -> 4 cores
// per node: 489 vertices.
func buildWide(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(0, 1<<20)
	cluster := g.MustAddVertex("cluster", -1, 1)
	for r := 0; r < 2; r++ {
		rack := g.MustAddVertex("rack", -1, 1)
		if err := g.AddContainment(cluster, rack); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 40; n++ {
			node := g.MustAddVertex("node", -1, 1)
			if err := g.AddContainment(rack, node); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 4; c++ {
				core := g.MustAddVertex("core", -1, 1)
				if err := g.AddContainment(node, core); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEpochBootstrapAndVersioning(t *testing.T) {
	g := buildTiny(t, nil)
	if g.EpochVersion() != 1 || g.StructVersion() != 1 {
		t.Fatalf("bootstrap versions = %d, %d", g.EpochVersion(), g.StructVersion())
	}

	// A status transition publishes a strictly newer version.
	node := g.ByPath("/cluster0/rack0/node0")
	if _, err := g.MarkDown(node); err != nil {
		t.Fatal(err)
	}
	v2 := g.EpochVersion()
	if v2 <= 1 {
		t.Fatalf("MarkDown did not advance the epoch: 1 -> %d", v2)
	}
	if _, err := g.MarkUp(node); err != nil {
		t.Fatal(err)
	}
	if v := g.EpochVersion(); v <= v2 {
		t.Fatalf("MarkUp did not advance the epoch: %d", v)
	}
	if g.StructVersion() != 1 {
		t.Fatal("status transitions bumped the structural version")
	}
}

func TestEpochStructuralTransition(t *testing.T) {
	g := buildWide(t)
	sv := g.StructVersion()
	rack1 := g.ByPath("/cluster0/rack1")
	nodes := rack1.Children(Containment)
	node := nodes[len(nodes)-1]
	if err := g.Detach(node); err != nil {
		t.Fatal(err)
	}
	sv2 := g.StructVersion()
	if sv2 <= sv {
		t.Fatal("detach did not bump the structural version")
	}
	// Grow: graft a freshly built node under the other rack — new labels,
	// new struct version.
	rack0 := g.ByPath("/cluster0/rack0")
	grown := g.MustAddVertex("node", -1, 1)
	core := g.MustAddVertex("core", -1, 1)
	if err := g.AddContainment(grown, core); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(rack0, grown); err != nil {
		t.Fatal(err)
	}
	if g.StructVersion() <= sv2 {
		t.Fatal("attach did not bump the structural version")
	}
}

func TestEpochBatchAndDeltaFlush(t *testing.T) {
	g := buildTiny(t, nil)
	var got []Delta
	g.SetDeltaSink(func(d Delta) { got = append(got, d) })

	v0 := g.EpochVersion()
	g.BeginEpochBatch()
	g.BeginEpochBatch() // batches nest
	node := g.ByPath("/cluster0/rack0/node0")
	if _, err := g.MarkDown(node); err != nil {
		t.Fatal(err)
	}
	core := g.ByPath("/cluster0/rack0/node1/core4")
	g.PublishSpanDelta(DeltaFree, core, 1, 0, 10)
	if g.EpochVersion() != v0 {
		t.Fatal("epoch transitioned inside an open batch")
	}
	if len(got) != 0 {
		t.Fatalf("deltas leaked inside an open batch: %d", len(got))
	}
	g.EndEpochBatch()
	if g.EpochVersion() != v0 || len(got) != 0 {
		t.Fatal("inner EndEpochBatch must not publish")
	}
	g.EndEpochBatch()
	if g.EpochVersion() != v0+1 {
		t.Fatal("outermost EndEpochBatch did not publish")
	}
	if len(got) != 2 || got[0].Kind != DeltaStructural || got[1].Kind != DeltaFree {
		t.Fatalf("flushed deltas = %+v", got)
	}
}

// lockedAdd plans one unit on v for [0, dur) under edit, the stand-in for
// the owning traverser's writer lock.
func lockedAdd(edit *sync.Mutex, v *Vertex, dur int64) (int64, error) {
	edit.Lock()
	defer edit.Unlock()
	return v.Planner().AddSpan(0, dur, 1)
}

// lockedRemove removes span id from v's planner under edit.
func lockedRemove(edit *sync.Mutex, v *Vertex, id int64) {
	edit.Lock()
	defer edit.Unlock()
	v.Planner().RemoveSpan(id)
}

// TestEpochVersionMonotoneUnderConcurrency asserts transitions are totally
// ordered: an observer polling the published epoch never sees the version
// go backwards, and concurrent publishers never produce duplicate
// versions for distinct epochs. Planner edits are serialized under one
// lock, the stand-in for the owning traverser's; publications are not.
func TestEpochVersionMonotoneUnderConcurrency(t *testing.T) {
	g := buildWide(t)
	cores := g.ByType("core")
	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		last := uint64(0)
		for {
			v := g.EpochVersion()
			if v < last {
				t.Errorf("epoch version went backwards: %d -> %d", last, v)
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
	var writers sync.WaitGroup
	var edit sync.Mutex
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				c := cores[(w*97+i)%len(cores)]
				if id, err := lockedAdd(&edit, c, 10); err == nil {
					g.MarkEpochDirty()
					g.PublishEpoch()
					lockedRemove(&edit, c, id)
					g.MarkEpochDirty()
					g.PublishEpoch()
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	observer.Wait()
}

// TestEpochPublishBuildsNothing pins the version counting: every
// publication that had something to publish advances the version by one,
// and one with nothing pending leaves it alone.
func TestEpochPublishBuildsNothing(t *testing.T) {
	g := buildWide(t)
	cores := g.ByType("core")
	for i := 0; i < 50; i++ {
		if _, err := cores[i].Planner().AddSpan(0, 10, 1); err != nil {
			t.Fatal(err)
		}
		g.MarkEpochDirty()
		g.PublishEpoch()
	}
	if g.EpochVersion() != 51 {
		t.Fatalf("after 50 publications: version %d, want 51", g.EpochVersion())
	}
	g.PublishEpoch()
	if g.EpochVersion() != 51 {
		t.Fatalf("empty publication moved the version to %d", g.EpochVersion())
	}
	// A vertex created but not yet attached still counts: MarkDown reaches
	// it through the intrusive links and publishes.
	stray := g.MustAddVertex("node", -1, 1)
	if _, err := g.MarkDown(stray); err != nil {
		t.Fatal(err)
	}
	if v := g.EpochVersion(); v != 52 {
		t.Fatalf("after marking a stray vertex: version %d, want 52", v)
	}
}
