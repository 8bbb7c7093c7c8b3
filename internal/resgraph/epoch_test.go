package resgraph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fluxion/internal/planner"
)

// buildWide constructs cluster0 -> rack{0,1} -> 40 nodes each -> 4 cores
// per node: 489 vertices, so the epoch spans two chunks and chunk-level
// copy-on-write is observable.
func buildWide(t *testing.T) *Graph { return buildWideSpec(t, nil) }

// buildWideSpec is buildWide with pruning filters installed per spec.
func buildWideSpec(t *testing.T, spec PruneSpec) *Graph {
	t.Helper()
	g := NewGraph(0, 1<<20)
	if spec != nil {
		if err := g.SetPruneSpec(spec); err != nil {
			t.Fatal(err)
		}
	}
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
	ep := g.Epoch()
	if ep == nil {
		t.Fatal("no epoch after Finalize")
	}
	if ep.Version() != 1 || g.EpochVersion() != 1 {
		t.Fatalf("bootstrap version = %d", ep.Version())
	}
	if ep.UniqBound() != g.UniqBound() {
		t.Fatalf("uniq bound = %d, want %d", ep.UniqBound(), g.UniqBound())
	}
	// Every vertex is live and up in the bootstrap epoch, with labels
	// matching the live graph.
	for _, v := range g.Vertices() {
		if !ep.Up(v.UniqID) {
			t.Fatalf("%s not up in epoch", v.Name)
		}
		in, out := v.TreeInterval()
		ein, eout := ep.TreeInterval(v.UniqID)
		if in != ein || out != eout {
			t.Fatalf("%s interval (%d,%d) vs epoch (%d,%d)", v.Name, in, out, ein, eout)
		}
		if ep.Plan(v.UniqID) == nil {
			t.Fatalf("%s has no plan snapshot", v.Name)
		}
	}
	// Out-of-range UniqIDs are conservatively absent.
	if ep.Up(-1) || ep.Up(g.UniqBound()) {
		t.Fatal("out-of-range uid reported up")
	}
	if ep.Plan(g.UniqBound()) != nil || ep.Filter(-1) != nil {
		t.Fatal("out-of-range uid has state")
	}
	if !ep.InSubtree(g.UniqBound(), 0) {
		t.Fatal("InSubtree must be conservative for unknown uids")
	}

	// A status transition publishes a strictly newer epoch.
	node := g.ByPath("/cluster0/rack0/node0")
	if _, err := g.MarkDown(node); err != nil {
		t.Fatal(err)
	}
	ep2 := g.Epoch()
	if ep2 == ep || ep2.Version() <= ep.Version() {
		t.Fatalf("MarkDown did not advance the epoch: %d -> %d", ep.Version(), ep2.Version())
	}
	if ep2.Up(node.UniqID) {
		t.Fatal("down node still up in new epoch")
	}
	if !ep.Up(node.UniqID) {
		t.Fatal("pinned old epoch mutated by MarkDown")
	}
	if _, err := g.MarkUp(node); err != nil {
		t.Fatal(err)
	}
	if v := g.EpochVersion(); v <= ep2.Version() {
		t.Fatalf("MarkUp did not advance the epoch: %d", v)
	}
}

func TestEpochChunkCopyOnWrite(t *testing.T) {
	g := buildWide(t)
	ep := g.Epoch()
	if len(ep.chunks) < 2 {
		t.Fatalf("want >= 2 chunks, got %d", len(ep.chunks))
	}
	// Dirty exactly one vertex in chunk 0: only that chunk is cloned, the
	// rest of the directory is shared with the previous epoch.
	v := g.Vertices()[3]
	if v.UniqID>>epochChunkBits != 0 {
		t.Fatalf("test vertex not in chunk 0")
	}
	if _, err := v.Planner().AddSpan(0, 10, 1); err != nil {
		t.Fatal(err)
	}
	g.MarkEpochDirty(v)
	g.PublishEpoch()
	ep2 := g.Epoch()
	if ep2 == ep {
		t.Fatal("no transition published")
	}
	if ep2.chunks[0] == ep.chunks[0] {
		t.Fatal("dirty chunk not cloned")
	}
	for i := 1; i < len(ep.chunks); i++ {
		if ep2.chunks[i] != ep.chunks[i] {
			t.Fatalf("clean chunk %d was copied", i)
		}
	}
	if ep2.StructVersion() != ep.StructVersion() {
		t.Fatal("non-structural transition bumped the structural version")
	}
	// The pinned epoch still reads the pre-mutation availability.
	if got, _ := ep.Plan(v.UniqID).AvailDuring(0, 10); got != v.Size {
		t.Fatalf("old epoch avail = %d, want %d", got, v.Size)
	}
	if got, _ := ep2.Plan(v.UniqID).AvailDuring(0, 10); got != v.Size-1 {
		t.Fatalf("new epoch avail = %d, want %d", got, v.Size-1)
	}
}

func TestEpochStructuralTransition(t *testing.T) {
	g := buildWide(t)
	ep := g.Epoch()
	rack1 := g.ByPath("/cluster0/rack1")
	nodes := rack1.Children(Containment)
	node := nodes[len(nodes)-1]
	if err := g.Detach(node); err != nil {
		t.Fatal(err)
	}
	ep2 := g.Epoch()
	if ep2.StructVersion() <= ep.StructVersion() {
		t.Fatal("detach did not bump the structural version")
	}
	if ep2.Up(node.UniqID) {
		t.Fatal("detached node still up")
	}
	if !ep.Up(node.UniqID) {
		t.Fatal("pinned epoch lost the detached node")
	}
	// Grow: graft a freshly built node under the other rack — new labels,
	// new struct version, and the new vertex is outside the old epochs.
	rack0 := g.ByPath("/cluster0/rack0")
	grown := g.MustAddVertex("node", -1, 1)
	core := g.MustAddVertex("core", -1, 1)
	if err := g.AddContainment(grown, core); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(rack0, grown); err != nil {
		t.Fatal(err)
	}
	ep3 := g.Epoch()
	if ep3.StructVersion() <= ep2.StructVersion() {
		t.Fatal("attach did not bump the structural version")
	}
	if !ep3.Up(grown.UniqID) || !ep3.Up(core.UniqID) {
		t.Fatal("grown subtree not up in new epoch")
	}
	if !ep3.InSubtree(rack0.UniqID, grown.UniqID) {
		t.Fatal("grown node not in new parent's subtree")
	}
	// Epochs pinned before the grow gate the new vertices out by bound.
	if ep2.Up(grown.UniqID) || ep.Up(core.UniqID) {
		t.Fatal("old epochs see vertices created after their capture")
	}
}

func TestEpochStable(t *testing.T) {
	g := buildTiny(t, nil)
	ep := g.Epoch()
	if !g.EpochStable(ep) {
		t.Fatal("current epoch with no pending mutations must be stable")
	}
	if g.EpochStable(nil) {
		t.Fatal("nil epoch must not be stable")
	}
	v := g.Vertices()[2]
	g.MarkEpochDirty(v)
	if g.EpochStable(ep) {
		t.Fatal("epoch with pending dirty vertex must not be stable")
	}
	g.PublishEpoch()
	if g.EpochStable(ep) {
		t.Fatal("superseded epoch must not be stable")
	}
	if !g.EpochStable(g.Epoch()) {
		t.Fatal("fresh epoch must be stable")
	}
}

func TestEpochBatchAndDeltaFlush(t *testing.T) {
	g := buildTiny(t, nil)
	var got []Delta
	g.SetDeltaSink(func(d Delta) { got = append(got, d) })

	ep := g.Epoch()
	g.BeginEpochBatch()
	g.BeginEpochBatch() // batches nest
	node := g.ByPath("/cluster0/rack0/node0")
	if _, err := g.MarkDown(node); err != nil {
		t.Fatal(err)
	}
	core := g.ByPath("/cluster0/rack0/node1/core4")
	g.PublishSpanDelta(DeltaFree, core, 1, 0, 10)
	if g.Epoch() != ep {
		t.Fatal("epoch transitioned inside an open batch")
	}
	if len(got) != 0 {
		t.Fatalf("deltas leaked inside an open batch: %d", len(got))
	}
	g.EndEpochBatch()
	if g.Epoch() != ep || len(got) != 0 {
		t.Fatal("inner EndEpochBatch must not publish")
	}
	g.EndEpochBatch()
	if g.Epoch() == ep {
		t.Fatal("outermost EndEpochBatch did not publish")
	}
	if len(got) != 2 || got[0].Kind != DeltaStructural || got[1].Kind != DeltaFree {
		t.Fatalf("flushed deltas = %+v", got)
	}
	if g.Epoch().Up(node.UniqID) {
		t.Fatal("batched MarkDown missing from published epoch")
	}
}

// TestEpochPinnedImmutableUnderConcurrency hammers a pinned epoch with
// concurrent mutators and verifies the pinned snapshot never changes: a
// reader hashing the same availability questions must see identical
// answers before, during, and after 1k concurrent transitions.
func TestEpochPinnedImmutableUnderConcurrency(t *testing.T) {
	g := buildWide(t)
	ep := g.Epoch()
	cores := g.ByType("core")

	hash := func(e *Epoch) uint64 {
		var h uint64 = 14695981039346656037 // FNV-64 offset basis
		mix := func(x uint64) {
			h ^= x
			h *= 1099511628211
		}
		for _, c := range cores {
			a, _ := e.Plan(c.UniqID).AvailDuring(0, 100)
			in, out := e.TreeInterval(c.UniqID)
			up := uint64(0)
			if e.Up(c.UniqID) {
				up = 1
			}
			mix(uint64(a) + up)
			mix(uint64(uint32(in))<<32 | uint64(uint32(out)))
		}
		return h
	}
	before := hash(ep)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				c := cores[(w*251+i*7)%len(cores)]
				if id, err := c.Planner().AddSpan(0, 50, 1); err == nil {
					g.MarkEpochDirty(c)
					g.PublishEpoch()
					c.Planner().RemoveSpan(id)
					g.MarkEpochDirty(c)
				}
				g.PublishEpoch()
			}
		}(w)
	}
	// Concurrent readers re-hash the pinned epoch while transitions fly.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if h := hash(ep); h != before {
					t.Errorf("pinned epoch hash changed mid-run: %x != %x", h, before)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h := hash(ep); h != before {
		t.Fatalf("pinned epoch mutated: %x != %x", h, before)
	}
	cur := g.Epoch()
	if cur.Version() <= ep.Version() {
		t.Fatalf("no transitions published: %d", cur.Version())
	}
	if h := hash(cur); h != before {
		// All spans were removed again, so the current epoch agrees with
		// the original by value — just not by identity.
		t.Fatalf("final epoch diverged: %x != %x", h, before)
	}
}

// TestEpochVersionMonotoneUnderConcurrency asserts transitions are totally
// ordered: an observer polling the published epoch never sees the version
// go backwards, and concurrent publishers never produce duplicate
// versions for distinct epochs.
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
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				c := cores[(w*97+i)%len(cores)]
				if id, err := c.Planner().AddSpan(0, 10, 1); err == nil {
					g.MarkEpochDirty(c)
					g.PublishEpoch()
					c.Planner().RemoveSpan(id)
					g.MarkEpochDirty(c)
					g.PublishEpoch()
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	observer.Wait()
}

// epochTwin drives one graph through a seeded random mutation sequence.
// Two twins with the same seed apply identical operations, so their
// publications line up one for one and their epochs must agree wherever
// both are pinned — however many publications each let pass unbuilt.
type epochTwin struct {
	g     *Graph
	rng   *rand.Rand
	spans []twinSpan
	grown int
}

type twinSpan struct {
	v      *Vertex
	id     int64
	filter bool
}

// step applies one random operation and returns its name.
func (tw *epochTwin) step(t *testing.T) string {
	g, rng := tw.g, tw.rng
	addSpan := func() {
		vs := g.Vertices()
		v := vs[rng.Intn(len(vs))]
		start, dur := int64(rng.Intn(80)), int64(1+rng.Intn(20))
		if v.Planner() == nil {
			return
		}
		if f := v.Filter(); f != nil && rng.Intn(3) == 0 {
			if p := filterMember(v, "core"); p != nil {
				if id, err := p.AddSpan(start, dur, 1); err == nil {
					tw.spans = append(tw.spans, twinSpan{v, id, true})
					g.MarkEpochDirty(v)
				}
			}
			return
		}
		if id, err := v.Planner().AddSpan(start, dur, 1); err == nil {
			tw.spans = append(tw.spans, twinSpan{v, id, false})
			g.MarkEpochDirty(v)
		}
	}
	removeSpan := func() {
		if len(tw.spans) == 0 {
			return
		}
		i := rng.Intn(len(tw.spans))
		sp := tw.spans[i]
		tw.spans = append(tw.spans[:i], tw.spans[i+1:]...)
		var err error
		if sp.filter {
			err = filterMember(sp.v, "core").RemoveSpan(sp.id)
		} else {
			err = sp.v.Planner().RemoveSpan(sp.id)
		}
		if err != nil {
			t.Fatalf("remove span %d on %s: %v", sp.id, sp.v.Name, err)
		}
		g.MarkEpochDirty(sp.v)
	}
	pick := func(typ string) *Vertex {
		var live []*Vertex
		for _, v := range g.ByType(typ) {
			if v.Attached() {
				live = append(live, v)
			}
		}
		return live[rng.Intn(len(live))]
	}
	switch op := rng.Intn(12); {
	case op < 4:
		addSpan()
		g.PublishEpoch()
		return "add"
	case op < 7:
		removeSpan()
		g.PublishEpoch()
		return "remove"
	case op == 7:
		// Errors (a filter that cannot shrink under live spans) are part of
		// the sequence: both twins fail identically.
		_, _ = g.MarkDown(pick([]string{"node", "rack"}[rng.Intn(2)]))
		return "down"
	case op == 8:
		_, _ = g.MarkUp(pick([]string{"node", "rack"}[rng.Intn(2)]))
		return "up"
	case op == 9:
		node := g.MustAddVertex("node", -1, 1)
		for c := 0; c < 2; c++ {
			if err := g.AddContainment(node, g.MustAddVertex("core", -1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Attach(pick("rack"), node); err != nil {
			t.Fatalf("grow: %v", err)
		}
		tw.grown++
		return "grow"
	case op == 10:
		v := pick("node")
		if err := g.Detach(v); err == nil {
			// Spans on the detached subtree's filters go with it.
			kept := tw.spans[:0]
			for _, sp := range tw.spans {
				if sp.v.Attached() {
					kept = append(kept, sp)
				}
			}
			tw.spans = kept
		}
		return "shrink"
	default:
		g.BeginEpochBatch()
		for i := 0; i < 3; i++ {
			addSpan()
			removeSpan()
		}
		g.EndEpochBatch()
		return "batch"
	}
}

// diffEpochs compares every observable of two epochs over every uid.
func diffEpochs(a, b *Epoch, types int) error {
	if a.Version() != b.Version() || a.StructVersion() != b.StructVersion() || a.UniqBound() != b.UniqBound() {
		return fmt.Errorf("headers differ: v%d/s%d/n%d vs v%d/s%d/n%d", a.Version(), a.StructVersion(),
			a.UniqBound(), b.Version(), b.StructVersion(), b.UniqBound())
	}
	sameSnap := func(x, y *planner.Snapshot) bool {
		if x == nil || y == nil {
			return x == y
		}
		if x.Total() != y.Total() || x.PointCount() != y.PointCount() {
			return false
		}
		for at := int64(0); at <= 100; at++ {
			ax, _ := x.AvailAt(at)
			ay, _ := y.AvailAt(at)
			if ax != ay {
				return false
			}
		}
		return true
	}
	for uid := int64(0); uid < a.UniqBound(); uid++ {
		if a.Up(uid) != b.Up(uid) {
			return fmt.Errorf("uid %d: up %v vs %v", uid, a.Up(uid), b.Up(uid))
		}
		ain, aout := a.TreeInterval(uid)
		bin, bout := b.TreeInterval(uid)
		if ain != bin || aout != bout {
			return fmt.Errorf("uid %d: interval (%d,%d) vs (%d,%d)", uid, ain, aout, bin, bout)
		}
		if !sameSnap(a.Plan(uid), b.Plan(uid)) {
			return fmt.Errorf("uid %d: plan snapshots differ", uid)
		}
		fa, fb := a.Filter(uid), b.Filter(uid)
		if (fa == nil) != (fb == nil) {
			return fmt.Errorf("uid %d: filter presence differs", uid)
		}
		for id := int32(0); id < int32(types); id++ {
			if !sameSnap(fa.ByID(id), fb.ByID(id)) {
				return fmt.Errorf("uid %d: filter member %d differs", uid, id)
			}
		}
	}
	return nil
}

// TestEpochLazyMatchesEagerPins is the differential test of lazy
// materialisation: one graph is pinned after every operation (every
// publication is built, as the eager layer did), its twin only every k-th,
// and at every common pin the two epochs must be indistinguishable —
// including when structural transitions, status flips and batches happened
// between the lazy twin's pins.
func TestEpochLazyMatchesEagerPins(t *testing.T) {
	spec := PruneSpec{ALL: {"core", "node"}}
	for _, k := range []int{2, 5, 17} {
		for seed := int64(1); seed <= 4; seed++ {
			eager := &epochTwin{g: buildWideSpec(t, spec), rng: rand.New(rand.NewSource(seed))}
			lazy := &epochTwin{g: buildWideSpec(t, spec), rng: rand.New(rand.NewSource(seed))}
			var sinceLazyPin []string
			skipped := 0
			for i := 1; i <= 300; i++ {
				op := eager.step(t)
				if op2 := lazy.step(t); op2 != op {
					t.Fatalf("twins diverged at op %d: %s vs %s", i, op, op2)
				}
				sinceLazyPin = append(sinceLazyPin, op)
				ea := eager.g.Epoch()
				if ea.Version() != eager.g.EpochVersion() || lazy.g.EpochVersion() != ea.Version() {
					t.Fatalf("k=%d seed=%d op %d: versions eager epoch %d, eager graph %d, lazy graph %d",
						k, seed, i, ea.Version(), eager.g.EpochVersion(), lazy.g.EpochVersion())
				}
				if i%k != 0 {
					continue
				}
				el := lazy.g.Epoch()
				if !eager.g.EpochStable(ea) {
					// A failed MarkDown/MarkUp left unpublished changes behind.
					// A build may already include them (the lazy twin's just
					// did, the eager twin's predates them); the next
					// publication covers them on both sides.
					skipped++
					continue
				}
				if err := diffEpochs(ea, el, eager.g.Types().Len()); err != nil {
					t.Fatalf("k=%d seed=%d op %d (since last lazy pin: %v): %v", k, seed, i, sinceLazyPin, err)
				}
				sinceLazyPin = sinceLazyPin[:0]
			}
			if eager.grown == 0 || skipped > 300/k/4 {
				t.Fatalf("seed %d: grew %d times, skipped %d of %d comparisons", seed, eager.grown, skipped, 300/k)
			}
			if eb, lb := eager.g.EpochBuilds(), lazy.g.EpochBuilds(); lb >= eb || lb > uint64(300/k)+1 {
				t.Fatalf("k=%d seed=%d: lazy twin built %d epochs, eager %d", k, seed, lb, eb)
			}
		}
	}
}

// TestEpochPublishBuildsNothing pins the split itself: publications
// advance the version and leave the materialised epoch alone, and the
// first reader afterwards pays for one build covering all of them.
func TestEpochPublishBuildsNothing(t *testing.T) {
	g := buildWide(t)
	ep := g.Epoch()
	if g.EpochBuilds() != 1 {
		t.Fatalf("builds after Finalize = %d, want 1", g.EpochBuilds())
	}
	cores := g.ByType("core")
	for i := 0; i < 50; i++ {
		if _, err := cores[i].Planner().AddSpan(0, 10, 1); err != nil {
			t.Fatal(err)
		}
		g.MarkEpochDirty(cores[i])
		g.PublishEpoch()
	}
	if g.EpochBuilds() != 1 || g.EpochVersion() != 51 {
		t.Fatalf("after 50 publications: builds %d version %d, want 1 and 51", g.EpochBuilds(), g.EpochVersion())
	}
	if g.EpochStable(ep) {
		t.Fatal("bootstrap epoch stable after 50 publications")
	}
	ep2 := g.Epoch()
	if g.EpochBuilds() != 2 || ep2.Version() != 51 || g.Epoch() != ep2 || g.EpochBuilds() != 2 {
		t.Fatalf("pin built %d epochs at version %d", g.EpochBuilds(), ep2.Version())
	}
	for i, c := range cores {
		want := int64(1)
		if i < 50 {
			want = 0
		}
		if got, _ := ep2.Plan(c.UniqID).AvailDuring(0, 10); got != want {
			t.Fatalf("core %d avail = %d, want %d", i, got, want)
		}
	}
	if !g.EpochStable(ep2) {
		t.Fatal("freshly built epoch must be stable")
	}
	// A vertex created but not yet attached is in no epoch; marking it
	// (MarkDown reaches it through the intrusive links) must not trip the
	// build that follows.
	stray := g.MustAddVertex("node", -1, 1)
	if _, err := g.MarkDown(stray); err != nil {
		t.Fatal(err)
	}
	if ep3 := g.Epoch(); ep3.Version() != 52 || ep3.Up(stray.UniqID) || !ep3.Up(cores[0].UniqID) {
		t.Fatalf("after marking a stray vertex: version %d, stray up %v", ep3.Version(), ep3.Up(stray.UniqID))
	}
}
