package traverser

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// idlePair drives two traversers over identical graphs through the same
// operations, the second with one shortcut switched off: the window-exact
// count (idle.off, walking every attempt), covered claims (cover.off,
// planning a span on every selected vertex) or index-backed selection
// (idle.noSelect, collecting every candidate list by the walk). Every
// operation must end the same way on both, and both must keep planners,
// filters and the idle index equal to what their allocation tables imply.
type idlePair struct {
	t       *testing.T
	g       [2]*resgraph.Graph
	tr      [2]*Traverser
	now     int64 // the stream's clock; planners are checked at it
	rejects int   // attempts the count refused on the first traverser
	// selecting marks a pair whose second side selects by the walk: both
	// sides count, so failed attempts must also capture equal signatures,
	// and the stream adds racks taken whole.
	selecting bool
	// seen counts the cases the stream reached on the first traverser,
	// by name.
	seen map[string]int
}

// idleOff, coverOff and selectOff switch a pair's second traverser's
// shortcut off.
func idleOff(tr *Traverser)   { tr.idle.off = true }
func coverOff(tr *Traverser)  { tr.cover.off = true }
func selectOff(tr *Traverser) { tr.idle.noSelect = true }

// idleSeeds is how many random streams (seeds 1..n) each differential pair
// test runs; a wide sweep raises it.
var idleSeeds = flag.Int64("idle.seeds", 32, "random streams per differential pair test")

// pinnedSeeds are streams that once failed: a status flip a filter refused
// left the statuses flipped and the filters half updated. They run
// whatever -idle.seeds says.
var pinnedSeeds = []int64{80, 92, 210, 404, 483, 493, 526, 611}

// pairSeeds returns seeds 1..idle.seeds and the pinned seeds past them.
func pairSeeds() []int64 {
	var out []int64
	for s := int64(1); s <= *idleSeeds; s++ {
		out = append(out, s)
	}
	for _, s := range pinnedSeeds {
		if s > *idleSeeds {
			out = append(out, s)
		}
	}
	return out
}

func newIdlePair(t *testing.T, rng chooser, racks, nodes, cores int64, spec resgraph.PruneSpec, off func(*Traverser)) *idlePair {
	p := &idlePair{t: t, seen: make(map[string]int)}
	for i := range p.g {
		p.g[i] = buildSmall(t, racks, nodes, cores, 0, spec)
	}
	policy := randomPolicy(rng, p.g[:]...)
	for i := range p.g {
		p.tr[i] = newT(t, p.g[i], policy)
	}
	off(p.tr[1])
	p.selecting = p.tr[1].idle.noSelect
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

// match runs one attempt on both sides and compares the outcomes. Every
// other attempt captures a blocking signature; a selecting pair compares
// those of failed attempts too.
func (p *idlePair) match(id int64, js *jobspec.Jobspec, at int64, reserve bool) bool {
	p.t.Helper()
	var got, sigs [2]string
	ok := false
	for i, tr := range p.tr {
		cjs, err := tr.Compile(js)
		if err != nil {
			p.t.Fatal(err)
		}
		var sig *BlockSig
		if id%2 == 0 {
			sig = new(BlockSig)
		}
		var a *Allocation
		if reserve {
			a, err = tr.MatchAllocateOrReserveCompiledSig(id, cjs, at, sig)
		} else {
			a, err = tr.MatchAllocateCompiledSig(id, cjs, at, sig)
		}
		got[i] = outcome(a, err)
		if sig != nil && errors.Is(err, ErrNoMatch) {
			sigs[i] = fmt.Sprintf("%+v", *sig)
		}
		if i == 0 {
			ok = err == nil
			if err != nil && strings.Contains(err.Error(), "too few idle") {
				p.rejects++
			}
		}
	}
	if got[0] != got[1] {
		p.t.Fatalf("job %d %s at %d (reserve %v): with the shortcut %q, without %q", id, js.Resources[0], at, reserve, got[0], got[1])
	}
	if p.selecting && sigs[0] != sigs[1] {
		p.t.Fatalf("job %d %s at %d (reserve %v): signature with the shortcut %s, without %s", id, js.Resources[0], at, reserve, sigs[0], sigs[1])
	}
	if p.selecting && sigs[0] != "" && match.IsTraversalOrder(p.tr[0].policy) {
		p.seen["signature compared"]++
	}
	p.check("match", false)
	return ok
}

// reinstall restores grants on both sides and compares the outcomes.
func (p *idlePair) reinstall(id, at, dur int64, grants []Grant) bool {
	p.t.Helper()
	var got [2]string
	for i, tr := range p.tr {
		a, err := tr.Reinstall(id, at, dur, false, grants)
		got[i] = outcome(a, err)
	}
	if got[0] != got[1] {
		p.t.Fatalf("reinstall job %d at %d %v: with the shortcut %q, without %q", id, at, grants, got[0], got[1])
	}
	p.check("reinstall", false)
	return !strings.HasPrefix(got[0], "no match") && !strings.HasPrefix(got[0], "error")
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
	if (errs[0] == nil) != (errs[1] == nil) || errors.Is(errs[0], resgraph.ErrBusy) != errors.Is(errs[1], resgraph.ErrBusy) {
		p.t.Fatalf("%s: with the shortcut %v, without %v", op, errs[0], errs[1])
	}
	p.check(op, synced && !graph)
}

// check compares the live index with one rebuilt from scratch and, when
// wantSynced, requires it to be in step with the graph. It also requires
// both sides' planners and filters to agree with their allocation tables
// (CheckPlanners) at the clock and past it, the tables to hold the same
// grants, and the filters to be equal.
func (p *idlePair) check(op string, wantSynced bool) {
	p.t.Helper()
	if wantSynced && !p.tr[0].idle.synced(p.g[0]) {
		p.t.Fatalf("%s: the traverser left the index behind the graph", op)
	}
	if err := p.tr[0].CheckIdleIndex(); err != nil {
		p.t.Fatalf("%s: %v", op, err)
	}
	for i, tr := range p.tr {
		for _, at := range []int64{p.now, p.now + 41, p.now + 97} {
			if err := tr.CheckPlanners(at); err != nil {
				p.t.Fatalf("%s: traverser %d: %v", op, i, err)
			}
		}
	}
	if a, b := p.table(0), p.table(1); a != b {
		p.t.Fatalf("%s: allocation tables differ:\n%s\n%s", op, a, b)
	}
	for _, v := range p.g[0].Vertices() {
		f := v.Filter()
		if f == nil || v.Path() == "" {
			continue
		}
		g := p.g[1].ByPath(v.Path()).Filter()
		for _, id := range f.IDs() {
			a, b := f.PlannerByID(id), g.PlannerByID(id)
			x, _ := a.AvailDuring(p.now, 1)
			y, _ := b.AvailDuring(p.now, 1)
			if a.Total() != b.Total() || a.SpanCount() != b.SpanCount() || x != y {
				p.t.Fatalf("%s: %s filter %d differs: total %d/%d, spans %d/%d, free %d/%d",
					op, v.Path(), id, a.Total(), b.Total(), a.SpanCount(), b.SpanCount(), x, y)
			}
		}
	}
}

// table renders side i's allocation table.
func (p *idlePair) table(i int) string {
	var b strings.Builder
	for _, id := range p.tr[i].Jobs() {
		a, _ := p.tr[i].Info(id)
		fmt.Fprintf(&b, "%d: %s\n", id, outcome(a, nil))
	}
	return b.String()
}

// coveredAt reports whether a job on the first traverser holds a covered
// entry in v's subtree.
func (p *idlePair) coveredAt(v *resgraph.Vertex) bool {
	for _, a := range p.tr[0].allocs {
		if a.coveredIn(v) {
			return true
		}
	}
	return false
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
// window-exact count: on random graphs, under each of the five match
// policies (randomPolicy), through random installs, cancels,
// reservations, releases, status flips (through the traverser and on the
// graph directly) and grafts, every attempt — at a clock that completes
// jobs as it moves, before it, and past it — ends the same with and
// without the count, and the live index always equals one rebuilt from
// scratch.
func TestIdleCountMatchesWalk(t *testing.T) {
	rejects := 0
	for _, seed := range pairSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rejects += runIdlePair(t, rand.New(rand.NewSource(seed)), 400, idleOff).rejects
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
		runIdlePair(t, &byteChooser{data: data}, min(len(data)/4, 300), idleOff)
		runIdlePair(t, &byteChooser{data: data}, min(len(data)/4, 300), selectOff)
	})
}

// TestIndexSelectionMatchesWalk is the differential test of index-backed
// selection: the same streams as TestIdleCountMatchesWalk, plus racks
// taken whole, under all five policies (only first selects from the
// index; the others must agree by walking), with a traverser that selects
// and one that collects every candidate list by the walk. Allocations,
// reservation times and the signatures of failed attempts must be equal.
func TestIndexSelectionMatchesWalk(t *testing.T) {
	seen := make(map[string]int)
	for _, seed := range pairSeeds() {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for k, n := range runIdlePair(t, rand.New(rand.NewSource(seed)), 400, selectOff).seen {
				seen[k] += n
			}
		})
	}
	t.Logf("cases reached: %v", seen)
	for _, k := range []string{"whole rack", "whole rack covering", "markup under a down rack",
		"attempt past an ended allocation", "signature compared"} {
		if seen[k] == 0 {
			t.Errorf("the stream never reached %q", k)
		}
	}
}

// TestIdleTypeNext checks the max tree's "next position at or after i
// keyed at least t" against a linear scan, across sizes at and around
// powers of two, after point updates.
func TestIdleTypeNext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 33; n++ {
		it := &idleType{keys: make([]int64, n)}
		for i := range it.keys {
			it.keys[i] = rng.Int63n(10)
		}
		it.build()
		for round := 0; round < 20; round++ {
			if n > 0 {
				it.store(rng.Intn(n), rng.Int63n(10))
			}
			for i := 0; i <= n; i++ {
				for k := int64(0); k <= 10; k++ {
					want := i
					for want < n && it.keys[want] < k {
						want++
					}
					if got := it.next(i, k); got != want {
						t.Fatalf("keys %v: next(%d, %d) = %d, want %d", it.keys, i, k, got, want)
					}
				}
			}
		}
	}
}

// pairSpecs are the pruning filters a random pair is built with: on every
// vertex, or at the root alone (so no node carries a filter that refuses
// to detach what a job holds beneath it).
var pairSpecs = []resgraph.PruneSpec{
	{resgraph.ALL: {"core", "node"}},
	{"cluster": {"core", "node"}},
}

// randomPolicy draws one of the five match policies. Under variation it
// gives the nodes of every graph in gs the same few perf classes, so
// classes tie and the order depends on which nodes are up; a node without
// a class sorts last. The graphs must be built alike.
func randomPolicy(rng chooser, gs ...*resgraph.Graph) match.Policy {
	policy := []match.Policy{match.First{}, match.HighID{}, match.LowID{}, match.Locality{}, match.NewVariation("")}[rng.Intn(5)]
	if _, ok := policy.(match.Variation); ok {
		nodes := make([][]*resgraph.Vertex, len(gs))
		for i, g := range gs {
			nodes[i] = g.ByType("node")
		}
		for j := range nodes[0] {
			if c := rng.Intn(4); c > 0 {
				for i := range gs {
					nodes[i][j].SetProperty(match.PerfClassKey, strconv.Itoa(c))
				}
			}
		}
	}
	return policy
}

// shuffled returns gs in a random order.
func shuffled(rng chooser, gs []Grant) []Grant {
	out := slices.Clone(gs)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runIdlePair drives one random pair, its second traverser switched by
// off, through ops operations and returns it.
func runIdlePair(t *testing.T, rng chooser, ops int, off func(*Traverser)) *idlePair {
	racks, nodes, cores := 1+rng.Int63n(3), 2+rng.Int63n(7), 2+rng.Int63n(3)
	p := newIdlePair(t, rng, racks, nodes, cores, pairSpecs[rng.Intn(len(pairSpecs))], off)
	var live []int64
	var grown []string
	nextID := int64(1)
	forget := func(id int64) {
		for i := range live {
			if live[i] == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	// pick returns a random vertex of typ still in the graph, or nil.
	pick := func(typ string) *resgraph.Vertex {
		var vs []*resgraph.Vertex
		for _, v := range p.g[0].ByType(typ) {
			if v.Path() != "" {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return nil
		}
		return vs[rng.Intn(len(vs))]
	}
	// attemptAt is mostly the clock, sometimes a time before it (past
	// the end of spans still installed) or after it.
	attemptAt := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return rng.Int63n(p.now + 1)
		case 1:
			return p.now + rng.Int63n(150)
		default:
			return p.now
		}
	}
	// keep records a job that exists on both sides from now on; one
	// placed before the clock is undone at once, since the clock
	// completes what ended by it.
	keep := func(id, at int64) {
		if at < p.now {
			p.both("undo", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
		} else {
			live = append(live, id)
		}
	}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(23); {
		case k < 9:
			id, at, reserve := nextID, attemptAt(), k >= 5
			nextID++
			size := 1 + racks*nodes/3
			if reserve {
				size = racks * nodes
			}
			js := randomIdleSpec(rng, size, cores)
			rack := p.selecting && rng.Intn(4) == 0
			if rack {
				// A rack taken whole, with all or some of its nodes: with
				// all, its claim covers them (cover.go).
				n := nodes
				if rng.Intn(2) == 0 {
					n = 1 + rng.Int63n(nodes)
				}
				js = jobspec.New(5+rng.Int63n(120), jobspec.RX("rack", 1, jobspec.R("node", n, jobspec.R("core", cores))))
			}
			for _, a := range p.tr[0].allocs {
				if a.At+a.Duration <= at {
					p.seen["attempt past an ended allocation"]++
					break
				}
			}
			if p.match(id, js, at, reserve) {
				keep(id, at)
				if a, _ := p.tr[0].Info(id); rack && a != nil {
					p.seen["whole rack"]++
					for i := range a.Vertices {
						if a.Vertices[i].covered() && a.Vertices[i].V.Type == "node" {
							p.seen["whole rack covering"]++
							break
						}
					}
				}
			}
		case k < 11 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			forget(id)
			p.both("cancel", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
		case k < 12 && len(live) > 0:
			// Release one node of a job, with or without its cores, or
			// only some of its cores.
			id := live[rng.Intn(len(live))]
			a, _ := p.tr[0].Info(id)
			var paths []string
			mode := rng.Intn(3)
			for _, va := range a.Vertices {
				if va.V.Type == "node" && va.Units > 0 {
					if mode < 2 {
						paths = append(paths, va.V.Path())
					}
					for _, vb := range a.Vertices {
						if vb.V.Parent() == va.V && (mode == 1 || mode == 2 && rng.Intn(2) == 0) {
							paths = append(paths, vb.V.Path())
						}
					}
					break
				}
			}
			if len(paths) == 0 {
				continue
			}
			for _, va := range a.Vertices {
				if slices.Contains(paths, va.V.Path()) {
					switch {
					case va.covered():
						p.seen["release covered"]++
					case va.V.Type == "node" && a.coveredIn(va.V):
						p.seen["release covering"]++
					}
				}
			}
			p.both("release", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Release(id, paths) })
			if _, ok := p.tr[0].Info(id); !ok {
				forget(id)
			}
		case k < 13:
			v := pick([]string{"node", "node", "rack", "core"}[rng.Intn(4)])
			if v == nil {
				continue
			}
			if v.Type == "core" && p.coveredAt(v) {
				p.seen["markdown covered"]++
			}
			path := v.Path()
			var evicted [2][]int64
			p.both("markdown", false, func(_ *resgraph.Graph, tr *Traverser) error {
				as, err := tr.MarkDown(path)
				for _, a := range as {
					i := 0
					if tr == p.tr[1] {
						i = 1
					}
					evicted[i] = append(evicted[i], a.JobID)
				}
				return err
			})
			if !slices.Equal(evicted[0], evicted[1]) {
				t.Fatalf("markdown %s evicted %v and %v", path, evicted[0], evicted[1])
			}
			for _, id := range evicted[0] {
				forget(id)
			}
		case k < 15:
			v := pick([]string{"node", "rack", "cluster", "core"}[rng.Intn(4)])
			if v == nil {
				continue
			}
			path := v.Path()
			if v.Type == "node" && v.Parent().Status != resgraph.StatusUp {
				p.seen["markup under a down rack"]++
			}
			p.both("markup", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.MarkUp(path) })
		case k < 16:
			// A status flip made on the graph directly, behind the
			// traverser: up always, down only where nothing is held.
			v := pick("node")
			if v == nil {
				continue
			}
			path := v.Path()
			affected := p.tr[0].AffectedJobs(v)
			if other := p.tr[1].AffectedJobs(p.g[1].ByPath(path)); !slices.Equal(affected, other) {
				t.Fatalf("jobs affected by %s: %v and %v", path, affected, other)
			}
			down := rng.Intn(2) == 0 && len(affected) == 0
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
			r := pick("rack")
			if r == nil {
				continue
			}
			rack := r.Path()
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
		case k < 19:
			// Detach a grown node, or a core of the graph (mostly refused
			// under a job's claim).
			var path string
			i := -1
			if k == 17 && len(grown) > 0 {
				i = rng.Intn(len(grown))
				path = grown[i]
			} else if v := pick("core"); v != nil {
				path = v.Path()
				if p.coveredAt(v) {
					p.seen[fmt.Sprintf("detach covered (filter above %v)", v.Parent().Filter() != nil)]++
				}
			} else {
				continue
			}
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
			if !busy[0] && i >= 0 {
				grown = append(grown[:i], grown[i+1:]...)
			}
			p.check("detach", synced)
		case k < 21:
			// Reinstall, grants shuffled: a whole node and everything
			// beneath it, part of a live job's grants under a new ID (a
			// conflict, mostly), or a live job's own grants after
			// cancelling it.
			id, at, dur := nextID, attemptAt(), 5+rng.Int63n(120)
			nextID++
			var grants []Grant
			switch mode := rng.Intn(3); {
			case mode == 0 || len(live) == 0:
				v := pick("node")
				if v == nil {
					continue
				}
				var whole func(v *resgraph.Vertex)
				whole = func(v *resgraph.Vertex) {
					grants = append(grants, Grant{Path: v.Path(), Units: v.Size})
					for _, c := range v.Kids(resgraph.Containment) {
						whole(c)
					}
				}
				whole(v)
			case mode == 1:
				a, _ := p.tr[0].Info(live[rng.Intn(len(live))])
				at, dur = a.At, a.Duration
				for _, gr := range a.Grants() {
					if rng.Intn(3) == 0 {
						grants = append(grants, gr)
					}
				}
				if len(grants) == 0 {
					continue
				}
			default:
				id = live[rng.Intn(len(live))]
				a, _ := p.tr[0].Info(id)
				at, dur, grants = a.At, a.Duration, a.Grants()
				forget(id)
				p.both("cancel", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
			}
			if p.reinstall(id, at, dur, shuffled(rng, grants)) {
				keep(id, at)
			} else {
				p.seen["reinstall refused"]++
			}
		default:
			// The clock moves and completes the jobs that ended by it,
			// but sometimes leaves them installed, as a clock moved onto
			// an event instant does until the event runs.
			p.now += 1 + rng.Int63n(60)
			if rng.Intn(8) == 0 {
				continue
			}
			for _, id := range append([]int64(nil), live...) {
				if a, _ := p.tr[0].Info(id); a.At+a.Duration <= p.now {
					forget(id)
					p.both("complete", false, func(_ *resgraph.Graph, tr *Traverser) error { return tr.Cancel(id) })
				}
			}
		}
	}
	return p
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
