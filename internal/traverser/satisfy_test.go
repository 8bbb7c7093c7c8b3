package traverser

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// satNet is the overlay subsystem a satisfiability stream may walk: a
// subset of the containment tree's links, mirrored edge by edge.
const satNet = "net"

// satShape builds one request shape at any duration.
type satShape func(dur int64) *jobspec.Jobspec

// randomSatShapes draws a request shape — rigid or moldable node counts,
// slots, sibling requests under one vertex or at the top, bare cores —
// and returns it twice: with its first node request exclusive, and
// shared.
func randomSatShapes(rng chooser, nodes, cores int64) [2]satShape {
	n, c := 1+rng.Int63n(nodes), 1+rng.Int63n(cores)
	m := 1 + rng.Int63n(n)
	node := func(count int64, excl bool, with ...*jobspec.Resource) *jobspec.Resource {
		r := jobspec.R("node", count, with...)
		r.Exclusive = excl
		return r
	}
	var mk func(dur int64, excl bool) *jobspec.Jobspec
	switch rng.Intn(7) {
	case 0:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			return jobspec.New(dur, node(n, excl, jobspec.R("core", c)))
		}
	case 1:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			r := jobspec.Moldable("node", m, n, jobspec.R("core", c))
			r.Exclusive = excl
			return jobspec.New(dur, r)
		}
	case 2:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			return jobspec.New(dur, jobspec.SlotR(n, node(1, excl, jobspec.R("core", c))))
		}
	case 3:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			return jobspec.New(dur, jobspec.R("rack", 1,
				node(m, excl, jobspec.R("core", c)), node(1, false, jobspec.R("core", 1))))
		}
	case 4:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			return jobspec.New(dur, node(m, excl, jobspec.R("core", c)), jobspec.R("core", c))
		}
	case 5:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			return jobspec.New(dur, node(n, excl, jobspec.Moldable("core", 1, c)))
		}
	default:
		mk = func(dur int64, excl bool) *jobspec.Jobspec {
			return jobspec.New(dur, jobspec.R("core", c*m))
		}
	}
	return [2]satShape{
		func(dur int64) *jobspec.Jobspec { return mk(dur, true) },
		func(dur int64) *jobspec.Jobspec { return mk(dur, false) },
	}
}

// satStream runs one traverser, on the containment tree or on the net
// overlay, through a random operation stream, and after every operation
// asks every shape of its pool, each time at a fresh random duration,
// both the memo and an uncached dry walk.
type satStream struct {
	t       *testing.T
	rng     chooser
	g       *resgraph.Graph
	tr      *Traverser
	overlay bool
	shapes  []satShape
	answers []bool // the last answer per shape
	asked   int    // memo queries
	flips   int    // answers that changed between two operations
}

// duration draws a request duration: unlimited, inside the horizon, or
// past it.
func (d *satStream) duration() int64 {
	switch d.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return d.g.Horizon() + 1 + d.rng.Int63n(1000)
	default:
		return 1 + d.rng.Int63n(500)
	}
}

// check compares, for every shape, the memo's answer with the walk's.
// With steady set (an operation that moved no capacity or status) the
// answers must also be the ones before it.
func (d *satStream) check(op string, steady bool) {
	d.t.Helper()
	for i, shape := range d.shapes {
		cjs, err := d.tr.Compile(shape(d.duration()))
		if err != nil {
			d.t.Fatal(err)
		}
		got, err := d.tr.MatchSatisfyCompiled(cjs)
		if err != nil {
			d.t.Fatalf("%s: shape %d: %v", op, i, err)
		}
		d.asked++
		d.tr.mu.Lock()
		d.g.RLock()
		want, werr := d.tr.satisfyWalk(cjs)
		d.g.RUnlock()
		d.tr.mu.Unlock()
		if werr != nil {
			d.t.Fatalf("%s: shape %d walk: %v", op, i, werr)
		}
		if got != want {
			d.t.Fatalf("%s: shape %d (%s): memo %v, walk %v", op, i, cjs.Spec().Resources[0], got, want)
		}
		if steady && got != d.answers[i] {
			d.t.Fatalf("%s: shape %d changed its answer to %v", op, i, got)
		}
		if got != d.answers[i] {
			d.flips++
		}
		d.answers[i] = got
	}
}

// pick returns a random attached vertex of typ, or nil.
func (d *satStream) pick(typ string) *resgraph.Vertex {
	var vs []*resgraph.Vertex
	for _, v := range d.g.ByType(typ) {
		if v.Path() != "" {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	return vs[d.rng.Intn(len(vs))]
}

// link adds the net edge from v's containment parent to v, unless it is
// there.
func (d *satStream) link(v *resgraph.Vertex) error {
	p := v.Parent()
	for _, k := range p.Kids(satNet) {
		if k == v {
			return nil
		}
	}
	return d.g.AddEdge(p, v, satNet, "feeds")
}

// runSatStream builds a random graph and drives it through ops
// operations: allocations, cancels and reservations (which must leave
// every answer as it was), status flips through the traverser and on the
// graph directly, grafts and detaches, and edges added after Finalize.
func runSatStream(t *testing.T, rng chooser, ops int) *satStream {
	racks, nodes, cores := 1+rng.Int63n(3), 2+rng.Int63n(6), 2+rng.Int63n(3)
	d := &satStream{t: t, rng: rng, overlay: rng.Intn(3) == 0}
	d.g = buildSmall(t, racks, nodes, cores, 0, pairSpecs[rng.Intn(len(pairSpecs))])
	var opts []Option
	if d.overlay {
		// Half the containment links, chosen at random, are on the net.
		d.g.SetRoot(satNet, d.g.Root(resgraph.Containment))
		for _, v := range d.g.Vertices() {
			if v.Parent() != nil && rng.Intn(2) == 0 {
				if err := d.link(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		opts = append(opts, WithSubsystem(satNet))
	}
	policy := randomPolicy(rng, d.g)
	tr, err := New(d.g, policy, opts...)
	if err != nil {
		t.Fatal(err)
	}
	d.tr = tr
	for i := 0; i < 3; i++ {
		twins := randomSatShapes(rng, racks*nodes+1, cores)
		d.shapes = append(d.shapes, twins[:]...)
	}
	d.answers = make([]bool, len(d.shapes))
	d.check("start", false)

	var live []int64
	var grown []string // grafted nodes without net edges: safe to detach
	now, nextID := int64(0), int64(1)
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(14); {
		case k < 4:
			js := d.shapes[rng.Intn(len(d.shapes))](1 + rng.Int63n(300))
			var err error
			if k < 2 {
				_, err = tr.MatchAllocate(nextID, js, now)
			} else {
				_, err = tr.MatchAllocateOrReserve(nextID, js, now)
			}
			if err == nil {
				live = append(live, nextID)
			} else if !errors.Is(err, ErrNoMatch) && !errors.Is(err, ErrNoFilter) {
				t.Fatal(err)
			}
			nextID++
			d.check("allocate", true)
		case k < 5 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := tr.Cancel(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			d.check("cancel", true)
		case k < 7:
			v := d.pick([]string{"node", "node", "rack", "core"}[rng.Intn(4)])
			if v == nil {
				continue
			}
			evicted, err := tr.MarkDown(v.Path())
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range evicted {
				for i := range live {
					if live[i] == a.JobID {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
			}
			d.check("markdown", false)
		case k < 8:
			v := d.pick([]string{"node", "rack", "cluster", "core"}[rng.Intn(4)])
			if v == nil {
				continue
			}
			if err := tr.MarkUp(v.Path()); err != nil {
				t.Fatal(err)
			}
			d.check("markup", false)
		case k < 9:
			// On the graph directly: up always, down only where no job
			// holds anything.
			v := d.pick([]string{"node", "core"}[rng.Intn(2)])
			if v == nil {
				continue
			}
			var err error
			if rng.Intn(2) == 0 && len(tr.AffectedJobs(v)) == 0 {
				_, err = d.g.MarkDown(v)
			} else {
				_, err = d.g.MarkUp(v)
			}
			if err != nil {
				t.Fatal(err)
			}
			d.check("graph status", false)
		case k < 10:
			r := d.pick("rack")
			if r == nil {
				continue
			}
			sub, err := grug.Build(d.g, &grug.Recipe{Root: grug.N("node", 1, grug.N("core", cores))})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Attach(r, sub); err != nil {
				t.Fatal(err)
			}
			if d.overlay && rng.Intn(2) == 0 {
				for _, v := range append([]*resgraph.Vertex{sub}, sub.Kids(resgraph.Containment)...) {
					if err := d.link(v); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				grown = append(grown, sub.Path())
			}
			d.check("attach", false)
		case k < 11:
			// A grafted node, or (containment only) a core of the graph,
			// mostly refused while a job holds it.
			var path string
			i := -1
			switch {
			case len(grown) > 0 && rng.Intn(2) == 0:
				i = rng.Intn(len(grown))
				path = grown[i]
			case !d.overlay:
				v := d.pick("core")
				if v == nil {
					continue
				}
				path = v.Path()
			default:
				continue
			}
			err := tr.Detach(path)
			if err != nil && !errors.Is(err, resgraph.ErrBusy) {
				t.Fatal(err)
			}
			if err == nil && i >= 0 {
				grown = append(grown[:i], grown[i+1:]...)
			}
			d.check("detach", false)
		case k < 12:
			// An edge after Finalize: a missing net link on the overlay,
			// or one on a subsystem the traverser does not walk.
			v := d.pick([]string{"rack", "node", "core"}[rng.Intn(3)])
			if v == nil {
				continue
			}
			var err error
			if d.overlay {
				err = d.link(v)
			} else {
				err = d.g.AddEdge(v.Parent(), v, "power", "supplies_to")
			}
			if err != nil {
				t.Fatal(err)
			}
			d.check("edge", !d.overlay)
		default:
			now += 1 + rng.Int63n(100)
			for _, id := range append([]int64(nil), live...) {
				if a, _ := tr.Info(id); a.At+a.Duration <= now {
					if err := tr.Cancel(id); err != nil {
						t.Fatal(err)
					}
					for i := range live {
						if live[i] == id {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
			d.check("complete", true)
		}
	}
	return d
}

// TestSatisfyMemoMatchesWalk is the differential property test of the
// satisfiability memo: on random graphs, over the containment tree or an
// overlay, every answer the memo gives after every operation equals an
// uncached dry walk's, allocations change no answer, and the stream both
// answers from the memo and changes answers often enough to test it.
func TestSatisfyMemoMatchesWalk(t *testing.T) {
	asked, walks, flips := 0, 0, 0
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d := runSatStream(t, rand.New(rand.NewSource(seed)), 300)
			asked, walks, flips = asked+d.asked, walks+d.tr.sat.walks, flips+d.flips
		})
	}
	t.Logf("%d queries, %d dry walks, %d changed answers", asked, walks, flips)
	if walks*2 > asked {
		t.Fatalf("%d dry walks for %d queries: the memo hardly answers", walks, asked)
	}
	if flips < 100 {
		t.Fatalf("only %d answers changed: the stream hardly invalidates the memo", flips)
	}
}

// FuzzSatisfyMemo runs the differential property test on operation
// streams drawn from the fuzz input.
func FuzzSatisfyMemo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("down a rack, graft a node, link it on the net"))
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 600)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		runSatStream(t, &byteChooser{data: data}, min(len(data)/4, 200))
	})
}

// TestSatisfyMemoWalksOncePerShape: a thousand submits of five shapes,
// each compiled afresh at its own duration, walk the machine five times.
func TestSatisfyMemoWalksOncePerShape(t *testing.T) {
	g := buildSmall(t, 2, 4, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	rng := rand.New(rand.NewSource(1))
	shapes := []satShape{
		func(dur int64) *jobspec.Jobspec { return jobspec.New(dur, jobspec.RX("node", 2, jobspec.R("core", 4))) },
		func(dur int64) *jobspec.Jobspec { return jobspec.New(dur, jobspec.RX("node", 9, jobspec.R("core", 4))) },
		func(dur int64) *jobspec.Jobspec {
			return jobspec.New(dur, jobspec.SlotR(3, jobspec.R("node", 1, jobspec.R("core", 2))))
		},
		func(dur int64) *jobspec.Jobspec { return jobspec.New(dur, jobspec.R("core", 5)) },
		func(dur int64) *jobspec.Jobspec { return jobspec.New(dur, jobspec.R("core", 33)) },
	}
	want := []bool{true, false, true, true, false}
	for i := 0; i < 1000; i++ {
		k := rng.Intn(len(shapes))
		ok, err := tr.MatchSatisfy(shapes[k](rng.Int63n(2 * g.Horizon())))
		if err != nil {
			t.Fatal(err)
		}
		if ok != want[k] {
			t.Fatalf("submit %d: shape %d satisfiable %v, want %v", i, k, ok, want[k])
		}
	}
	if tr.sat.walks != len(shapes) {
		t.Fatalf("%d dry walks for %d shapes", tr.sat.walks, len(shapes))
	}
}

// TestSatisfyMemoCap: past satMemoCap shapes the memo starts over rather
// than growing, and keeps answering right.
func TestSatisfyMemoCap(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec())
	tr := newT(t, g, match.First{})
	for round := 0; round < 2; round++ {
		for n := int64(1); n <= satMemoCap+44; n++ {
			ok, err := tr.MatchSatisfy(jobspec.New(10, jobspec.R("core", n)))
			if err != nil {
				t.Fatal(err)
			}
			if ok != (n <= 8) {
				t.Fatalf("%d cores: satisfiable %v", n, ok)
			}
			if len(tr.sat.answers) > satMemoCap {
				t.Fatalf("the memo holds %d shapes", len(tr.sat.answers))
			}
		}
	}
}

// TestOverlayEdgeMovesSatisfy: on an overlay subsystem, an edge added
// after Finalize is live at once, so it must move the structural
// generation the memo is tagged with: a request the overlay could not
// host before the edge can be hosted after it.
func TestOverlayEdgeMovesSatisfy(t *testing.T) {
	g := buildSmall(t, 1, 2, 4, 0, defaultSpec())
	root := g.Root(resgraph.Containment)
	g.SetRoot(satNet, root)
	rack := g.ByPath("/cluster0/rack0")
	node0, node1 := g.ByPath("/cluster0/rack0/node0"), g.ByPath("/cluster0/rack0/node1")
	for _, e := range [][2]*resgraph.Vertex{{root, rack}, {rack, node0}} {
		if err := g.AddEdge(e[0], e[1], satNet, "feeds"); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*resgraph.Vertex{node0, node1} {
		for _, c := range n.Kids(resgraph.Containment) {
			if err := g.AddEdge(n, c, satNet, "feeds"); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr, err := New(g, match.First{}, WithSubsystem(satNet))
	if err != nil {
		t.Fatal(err)
	}
	two := jobspec.New(10, jobspec.RX("node", 2, jobspec.R("core", 4)))
	if ok, err := tr.MatchSatisfy(two); err != nil || ok {
		t.Fatalf("two nodes with one on the net: satisfiable %v, %v", ok, err)
	}
	sv := g.StructVersion()
	if err := g.AddEdge(rack, node1, satNet, "feeds"); err != nil {
		t.Fatal(err)
	}
	if g.StructVersion() == sv {
		t.Fatal("an edge added after Finalize left the structural generation")
	}
	if ok, err := tr.MatchSatisfy(two); err != nil || !ok {
		t.Fatalf("two nodes with both on the net: satisfiable %v, %v", ok, err)
	}
}

// TestSatisfyMemoVariationFlips: under match.Variation the dry walk is
// not monotone in status. The class order ranks classes by their up
// nodes and sibling requests match in turn, so bringing a node up can
// turn a satisfiable request unsatisfiable and taking one down the
// reverse. The memo keeps no answer across a flip in either direction.
func TestSatisfyMemoVariationFlips(t *testing.T) {
	g := resgraph.NewGraph(0, 1000)
	cl := g.MustAddVertex("cluster", -1, 1)
	// node0: class 1, 4 cores; node1, node2: class 2, 1 core each;
	// node3: class 1, 1 core.
	for i, n := range []struct {
		class string
		cores int
	}{{"1", 4}, {"2", 1}, {"2", 1}, {"1", 1}} {
		nd := g.MustAddVertex("node", -1, 1)
		nd.SetProperty(match.PerfClassKey, n.class)
		if err := g.AddContainment(cl, nd); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < n.cores; c++ {
			if err := g.AddContainment(nd, g.MustAddVertex("core", -1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if nd.ID != int64(i) {
			t.Fatalf("node %d has ID %d", i, nd.ID)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	tr := newT(t, g, match.NewVariation(""))
	// With node3 up, classes 1 and 2 tie at two nodes and class 1 wins:
	// the first request takes node0 and node3 and the second finds no
	// node with 4 cores. With node3 down, class 2 fits the first request
	// best and leaves node0 to the second.
	js := jobspec.New(10, jobspec.RX("node", 2, jobspec.R("core", 1)), jobspec.RX("node", 1, jobspec.R("core", 4)))
	cjs, err := tr.Compile(js)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range []struct {
		down bool
		want bool
	}{{false, false}, {true, true}, {false, false}, {true, true}} {
		if i > 0 {
			if step.down {
				_, err = tr.MarkDown("/cluster0/node3")
			} else {
				err = tr.MarkUp("/cluster0/node3")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := tr.MatchSatisfyCompiled(cjs)
		if err != nil {
			t.Fatal(err)
		}
		tr.mu.Lock()
		g.RLock()
		walked, err := tr.satisfyWalk(cjs)
		g.RUnlock()
		tr.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if got != walked || walked != step.want {
			t.Fatalf("step %d (node3 down %v): memo %v, walk %v, want %v", i, step.down, got, walked, step.want)
		}
	}
}
