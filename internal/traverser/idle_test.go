package traverser

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// idlePair drives two traversers over identical graphs through the same
// operations: one with the window-exact count, one walking every attempt
// (idle.off). Every attempt must end the same way on both.
type idlePair struct {
	t       *testing.T
	g       [2]*resgraph.Graph
	tr      [2]*Traverser
	rejects int // attempts the count refused on the first traverser
}

func newIdlePair(t *testing.T, racks, nodes, cores int64, spec resgraph.PruneSpec) *idlePair {
	p := &idlePair{t: t}
	for i := range p.g {
		p.g[i] = buildSmall(t, racks, nodes, cores, 0, spec)
		p.tr[i] = newT(t, p.g[i], match.First{})
	}
	p.tr[1].idle.off = true
	return p
}

// outcome renders one attempt's result so the two sides compare as
// strings: the granted vertices and window, or the error class.
func outcome(a *Allocation, err error) string {
	switch {
	case err == nil:
		var b strings.Builder
		fmt.Fprintf(&b, "at=%d dur=%d reserved=%v", a.At, a.Duration, a.Reserved)
		for _, gr := range a.Grants() {
			fmt.Fprintf(&b, " %s[%d]", gr.Path, gr.Units)
		}
		return b.String()
	case errors.Is(err, ErrNoMatch):
		return "no match"
	default:
		return "error: " + err.Error()
	}
}

// match runs one attempt on both sides and compares the outcomes.
func (p *idlePair) match(id int64, js *jobspec.Jobspec, at int64, reserve bool) bool {
	p.t.Helper()
	var got [2]string
	ok := false
	for i, tr := range p.tr {
		var a *Allocation
		var err error
		if reserve {
			a, err = tr.MatchAllocateOrReserve(id, js, at)
		} else {
			a, err = tr.MatchAllocate(id, js, at)
		}
		got[i] = outcome(a, err)
		if i == 0 {
			ok = err == nil
			if err != nil && strings.Contains(err.Error(), "too few idle") {
				p.rejects++
			}
		}
	}
	if got[0] != got[1] {
		p.t.Fatalf("job %d %s at %d (reserve %v): with the count %q, without %q", id, js.Resources[0], at, reserve, got[0], got[1])
	}
	return ok
}

// both applies fn to each side and requires the same error class. For an
// operation through the traverser (graph false), an index that was in step
// with the graph must still be: the traverser keeps it itself rather than
// leaving the next query to rebuild it.
func (p *idlePair) both(op string, graph bool, fn func(g *resgraph.Graph, tr *Traverser) error) {
	p.t.Helper()
	synced := p.tr[0].idle.synced(p.g[0])
	var errs [2]error
	for i := range p.tr {
		errs[i] = fn(p.g[i], p.tr[i])
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		p.t.Fatalf("%s: with the count %v, without %v", op, errs[0], errs[1])
	}
	p.check(op, synced && !graph)
}

// check compares the live index with one rebuilt from scratch and, when
// wantSynced, requires it to be in step with the graph.
func (p *idlePair) check(op string, wantSynced bool) {
	p.t.Helper()
	if wantSynced && !p.tr[0].idle.synced(p.g[0]) {
		p.t.Fatalf("%s: the traverser left the index behind the graph", op)
	}
	if err := p.tr[0].CheckIdleIndex(); err != nil {
		p.t.Fatalf("%s: %v", op, err)
	}
}

// chooser is the random source of an operation stream: *rand.Rand, or
// fuzz bytes.
type chooser interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// byteChooser draws choices from fuzz input, two bytes each, and zeros
// once the input is spent.
type byteChooser struct{ data []byte }

func (b *byteChooser) next() uint64 {
	var v uint64
	for i := 0; i < 2 && len(b.data) > 0; i++ {
		v = v<<8 | uint64(b.data[0])
		b.data = b.data[1:]
	}
	return v
}

func (b *byteChooser) Intn(n int) int       { return int(b.next() % uint64(n)) }
func (b *byteChooser) Int63n(n int64) int64 { return int64(b.next() % uint64(n)) }

// randomIdleSpec draws a request shape: whole nodes, slots of nodes, a
// moldable node count, racks of nodes, shared nodes, or bare cores.
func randomIdleSpec(rng chooser, nodes, cores int64) *jobspec.Jobspec {
	n := 1 + rng.Int63n(nodes)
	c := 1 + rng.Int63n(cores)
	dur := 5 + rng.Int63n(120)
	var r *jobspec.Resource
	switch rng.Intn(8) {
	case 0, 6, 7:
		r = jobspec.RX("node", n, jobspec.R("core", c))
	case 1:
		r = jobspec.SlotR(n, jobspec.R("node", 1, jobspec.R("core", c)))
	case 2:
		r = jobspec.Moldable("node", 1, n+1, jobspec.R("core", c))
		r.Exclusive = true
	case 3:
		r = jobspec.R("rack", 1+rng.Int63n(2), jobspec.RX("node", 1+n/2, jobspec.R("core", c)))
	case 4:
		r = jobspec.R("node", n, jobspec.R("core", c))
	default:
		r = jobspec.R("core", c)
	}
	return jobspec.New(dur, r)
}

// TestIdleCountMatchesWalk is the differential property test of the
// window-exact count: on random graphs under random installs, cancels,
// reservations, releases, status flips (through the traverser and on the
// graph directly) and grafts, every attempt — at a clock that completes
// jobs as it moves, before it, and past it — ends the same with and
// without the count, and the live index always equals one rebuilt from
// scratch.
func TestIdleCountMatchesWalk(t *testing.T) {
	rejects := 0
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rejects += runIdlePair(t, rand.New(rand.NewSource(seed)), 400)
		})
	}
	t.Logf("the count refused %d attempts", rejects)
	if rejects < 20 {
		t.Fatalf("the count refused only %d attempts: the test hardly exercises it", rejects)
	}
}

// FuzzIdleCount runs the differential property test on operation streams
// drawn from the fuzz input.
func FuzzIdleCount(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("whole nodes over a fragmented window, then a status flip"))
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 600)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		runIdlePair(t, &byteChooser{data: data}, min(len(data)/4, 300))
	})
}

// runIdlePair drives one random pair through ops operations and returns
// how many attempts the count refused.
func runIdlePair(t *testing.T, rng chooser, ops int) int {
	racks, nodes, cores := 1+rng.Int63n(3), 2+rng.Int63n(7), 2+rng.Int63n(3)
	p := newIdlePair(t, racks, nodes, cores, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	var live []int64
	var grown []string
	nextID := int64(1)
	now := int64(0)
	forget := func(id int64) {
		for i := range live {
			if live[i] == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	pick := func(typ string) *resgraph.Vertex {
		vs := p.g[0].ByType(typ)
		for {
			v := vs[rng.Intn(len(vs))]
			if v.Path() != "" {
				return v
			}
		}
	}
	// attemptAt is mostly the clock, sometimes a time before it (past
	// the end of spans still installed) or after it.
	attemptAt := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return rng.Int63n(now + 1)
		case 1:
			return now + rng.Int63n(150)
		default:
			return now
		}
	}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(20); {
		case k < 9:
			// Allocations made before the clock are undone at once: the
			// clock completes what ended by it.
			id, at, reserve := nextID, attemptAt(), k >= 5
			nextID++
			size := 1 + racks*nodes/3
			if reserve {
				size = racks * nodes
			}
			if p.match(id, randomIdleSpec(rng, size, cores), at, reserve) {
				if at < now {
					p.both("undo", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
				} else {
					live = append(live, id)
				}
			}
		case k < 11 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			forget(id)
			p.both("cancel", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
		case k < 12 && len(live) > 0:
			// Release one node of a job, with or without its cores.
			id := live[rng.Intn(len(live))]
			a, _ := p.tr[0].Info(id)
			var paths []string
			for _, va := range a.Vertices {
				if va.V.Type == "node" && va.Units > 0 {
					paths = append(paths, va.V.Path())
					if rng.Intn(2) == 0 {
						for _, vb := range a.Vertices {
							if vb.V.Parent() == va.V {
								paths = append(paths, vb.V.Path())
							}
						}
					}
					break
				}
			}
			if len(paths) == 0 {
				continue
			}
			p.both("release", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Release(id, paths) })
			if _, ok := p.tr[0].Info(id); !ok {
				forget(id)
			}
		case k < 13:
			path := pick([]string{"node", "node", "rack"}[rng.Intn(3)]).Path()
			p.both("markdown", false, func(_ *resgraph.Graph, tr *Traverser) error {
				evicted, err := tr.MarkDown(path)
				if tr == p.tr[0] {
					for _, a := range evicted {
						forget(a.JobID)
					}
				}
				return err
			})
		case k < 15:
			path := pick([]string{"node", "rack", "cluster"}[rng.Intn(3)]).Path()
			p.both("markup", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.MarkUp(path) })
		case k < 16:
			// A status flip made on the graph directly, behind the
			// traverser: up always, down only where nothing is held.
			path := pick("node").Path()
			down := rng.Intn(2) == 0 && len(p.tr[0].AffectedJobs(p.g[0].ByPath(path))) == 0
			p.both("graph status", true, func(g *resgraph.Graph, _ *Traverser) error {
				var err error
				if down {
					_, err = g.MarkDown(g.ByPath(path))
				} else {
					_, err = g.MarkUp(g.ByPath(path))
				}
				return err
			})
		case k < 17:
			rack := pick("rack").Path()
			var path string
			p.both("attach", false, func(g *resgraph.Graph, tr *Traverser) error {
				sub, err := grug.Build(g, &grug.Recipe{Root: grug.N("node", 1, grug.N("core", cores))})
				if err != nil {
					return err
				}
				if err := tr.Attach(g.ByPath(rack), sub); err != nil {
					return err
				}
				path = sub.Path()
				return nil
			})
			grown = append(grown, path)
		case k < 18:
			if len(grown) == 0 {
				continue
			}
			i := rng.Intn(len(grown))
			path := grown[i]
			synced := p.tr[0].idle.synced(p.g[0])
			var busy [2]bool
			for j, tr := range p.tr {
				err := tr.Detach(path)
				busy[j] = errors.Is(err, resgraph.ErrBusy)
				if err != nil && !busy[j] {
					t.Fatalf("detach %s: %v", path, err)
				}
			}
			if busy[0] != busy[1] {
				t.Fatalf("detach %s: busy %v", path, busy)
			}
			if !busy[0] {
				grown = append(grown[:i], grown[i+1:]...)
			}
			p.check("detach", synced)
		default:
			// The clock moves and completes the jobs that ended by it,
			// but sometimes leaves them installed, as a clock moved onto
			// an event instant does until the event runs.
			now += 1 + rng.Int63n(60)
			if rng.Intn(8) == 0 {
				continue
			}
			for _, id := range append([]int64(nil), live...) {
				if a, _ := p.tr[0].Info(id); a.At+a.Duration <= now {
					forget(id)
					p.both("complete", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
				}
			}
		}
	}
	return p.rejects
}

// TestIdleCountSignature: two nodes busy in the first half of the window
// and the other two in the second leave every instant with two nodes
// free, so the root filter admits a two-node request, but no node is idle
// throughout. The count refuses it with one reason at the root: the node
// type, short by both nodes; then by one once a node is released.
func TestIdleCountSignature(t *testing.T) {
	g := buildSmall(t, 1, 4, 2, 0, resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	tr := newT(t, g, match.First{})
	two := func(dur int64) *jobspec.Jobspec {
		return jobspec.New(dur, jobspec.RX("node", 2, jobspec.R("core", 2)))
	}
	for _, j := range []struct{ id, at, dur int64 }{{1, 0, 100}, {2, 50, 50}, {3, 0, 50}} {
		if _, err := tr.MatchAllocate(j.id, two(j.dur), j.at); err != nil {
			t.Fatal(err)
		}
		if j.id == 2 {
			if err := tr.Cancel(1); err != nil { // job 3 takes node0 and node1
				t.Fatal(err)
			}
		}
	}
	cjs, err := tr.Compile(two(100))
	if err != nil {
		t.Fatal(err)
	}
	node, _ := g.Types().Lookup("node")
	in, out := g.Root("containment").TreeInterval()
	refused := func(shortfall int64) {
		t.Helper()
		var sig BlockSig
		_, err := tr.MatchAllocateCompiledSig(4, cjs, 0, &sig)
		if !errors.Is(err, ErrNoMatch) || !strings.Contains(err.Error(), "too few idle") {
			t.Fatalf("err = %v, want the idle count's refusal", err)
		}
		want := []BlockReason{{TreeIn: in, TreeOut: out, TypeID: node, Shortfall: shortfall}}
		if !slices.Equal(sig.Reasons, want) {
			t.Fatalf("reasons = %+v, want %+v", sig.Reasons, want)
		}
		tr.idle.off = true
		defer func() { tr.idle.off = false }()
		if _, err := tr.MatchAllocateCompiledSig(4, cjs, 0, nil); !errors.Is(err, ErrNoMatch) {
			t.Fatalf("the walk admits what the count refused: %v", err)
		}
	}
	refused(2)
	a, _ := tr.Info(3)
	n0 := a.Nodes()[0]
	paths := []string{n0.Path()}
	for _, va := range a.Vertices {
		if va.V.Parent() == n0 {
			paths = append(paths, va.V.Path())
		}
	}
	if err := tr.Release(3, paths); err != nil {
		t.Fatal(err)
	}
	refused(1)
	if err := tr.Cancel(3); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MatchAllocateCompiledSig(4, cjs, 0, nil); err != nil {
		t.Fatal(err)
	}
}
