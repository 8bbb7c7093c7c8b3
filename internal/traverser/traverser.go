// Package traverser implements Fluxion's depth-first-and-up (DFU) graph
// traversal (paper §3.2): it matches an abstract resource request graph
// (jobspec) against the resource graph store, scoring candidates through a
// match policy, pruning descent with aggregate filters (§3.4), and — once
// the best-matching subgraph is selected — propagating the allocation to
// ancestor pruning filters via the Scheduler-Driven Filter Update (SDFU).
//
// The three match operations mirror flux-sched:
//
//   - MatchAllocate: allocate at a given time, or fail;
//   - MatchAllocateOrReserve: allocate now or reserve the earliest future
//     time the request fits (the building block of backfilling);
//   - MatchSatisfy: check whether the request could ever be satisfied on
//     an empty system with today's topology and up/down bits
//     (capacity-only, memoised per request shape: satisfy.go).
package traverser

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/resgraph"
)

// Errors returned by traverser operations.
var (
	// ErrNoMatch reports that the request cannot be satisfied at the
	// requested time (MatchAllocate) or at any future candidate time
	// (MatchAllocateOrReserve).
	ErrNoMatch = errors.New("traverser: no matching resources")
	// ErrUnsatisfiable reports that the request exceeds the system's
	// total capacity and can never be satisfied.
	ErrUnsatisfiable = errors.New("traverser: request unsatisfiable")
	// ErrExists reports a duplicate job ID.
	ErrExists = errors.New("traverser: job already exists")
	// ErrUnknownJob reports an unknown job ID.
	ErrUnknownJob = errors.New("traverser: unknown job")
	// ErrNoFilter reports a reservation attempt on a graph whose root
	// carries no pruning filter to enumerate candidate times.
	ErrNoFilter = errors.New("traverser: reservation requires a root pruning filter")
)

// noMatchAt is the ErrNoMatch of one failed attempt at time at. It
// formats only when printed: in a busy queue most attempts fail, and
// their errors are checked with errors.Is, not read.
type noMatchAt struct {
	why string // what failed; the message ends "<why> t=<at>"
	at  int64
}

func (e *noMatchAt) Error() string { return fmt.Sprintf("%v: %s t=%d", ErrNoMatch, e.why, e.at) }
func (e *noMatchAt) Unwrap() error { return ErrNoMatch }

// Option configures a Traverser.
type Option func(*Traverser)

// WithSubsystem selects the subsystem to walk (default containment).
func WithSubsystem(name string) Option {
	return func(t *Traverser) { t.subsystem = name }
}

// Traverser matches jobspecs against a finalized resource graph.
//
// A Traverser is safe for concurrent use. It is the single writer of its
// graph's planners and pruning filters (see package planner): every match
// and every operation that edits them (MatchAllocate, Cancel, MarkDown,
// Attach, ...) serializes under the writer side of t.mu, and the
// read-only queries (Info, Jobs, AffectedJobs) run under the reader side.
// Throughput beyond one writer comes from more instances (shards), not
// from more threads inside one. Lock ordering is t.mu, then the graph's
// lock.
type Traverser struct {
	g               *resgraph.Graph
	policy          match.Policy
	subsystem       string
	maxReserveDepth int              // candidate times MatchAllocateOrReserve probes before giving up
	root            *resgraph.Vertex // cached: Graph.Root self-locks
	containment     bool             // subsystem is containment: subtree intervals are valid
	staticOrder     bool             // policy keeps traversal order: first-fit cursors apply

	mu     sync.RWMutex
	allocs map[int64]*Allocation
	// reserveProbe's request scratch: the root-tracked totals as type IDs
	// and units; guarded by mu (writer side).
	probeIDs   []int32
	probeUnits []int64

	// scratch is the match working memory; every match runs under t.mu.
	scratch *matchScratch

	// idle is the window-exact admission index (idle.go); guarded by mu.
	idle idleIndex
	// cover is install's scratch for covered entries (cover.go); guarded
	// by mu.
	cover coverScratch
	// sat is MatchSatisfy's per-shape memo (satisfy.go); guarded by mu.
	sat satMemo
}

// New creates a traverser over g using the given match policy.
func New(g *resgraph.Graph, policy match.Policy, opts ...Option) (*Traverser, error) {
	if g == nil || !g.Finalized() {
		return nil, fmt.Errorf("traverser: graph must be finalized")
	}
	if policy == nil {
		policy = match.First{}
	}
	t := &Traverser{
		g:               g,
		policy:          policy,
		subsystem:       resgraph.Containment,
		maxReserveDepth: 4096,
		allocs:          make(map[int64]*Allocation),
	}
	for _, o := range opts {
		o(t)
	}
	t.root = t.g.Root(t.subsystem)
	if t.root == nil {
		return nil, fmt.Errorf("traverser: subsystem %q has no root", t.subsystem)
	}
	t.containment = t.subsystem == resgraph.Containment
	t.staticOrder = match.IsTraversalOrder(t.policy)
	t.scratch = &matchScratch{}
	return t, nil
}

// Compile precompiles js against this traverser's graph for repeated
// matching through the *Compiled entry points: the request tree is
// flattened with resource types interned into the graph's type table and
// per-node pruning aggregates precomputed once, instead of on every
// attempt. The result is immutable and safe to share across goroutines;
// it is only valid for traversers over the same graph.
func (t *Traverser) Compile(js *jobspec.Jobspec) (*jobspec.Compiled, error) {
	return jobspec.Compile(js, t.g.Types())
}

// checkCompiled guards the *Compiled entry points against specs compiled
// for another graph, whose interned type IDs would be meaningless here.
func (t *Traverser) checkCompiled(cjs *jobspec.Compiled) error {
	if cjs == nil {
		return fmt.Errorf("traverser: nil compiled jobspec")
	}
	if cjs.Table() != t.g.Types() {
		return fmt.Errorf("traverser: jobspec compiled against a different graph")
	}
	return nil
}

// Graph returns the underlying store.
func (t *Traverser) Graph() *resgraph.Graph { return t.g }

// Policy returns the match policy in use.
func (t *Traverser) Policy() match.Policy { return t.policy }

// VertexAlloc records one selected vertex and the units planned on it.
type VertexAlloc struct {
	V     *resgraph.Vertex
	Units int64
	// span is the vertex planner's span ID; 0 when Units == 0, or when the
	// entry is covered by a whole claim above it (cover.go).
	span int64
}

// filterSpan records one member span SDFU planned in an ancestor's pruning
// filter: the filter owner, the member's type ID and the member planner's
// span ID.
type filterSpan struct {
	owner  *resgraph.Vertex
	typeID int32
	span   int64
}

// remove unplans the member span.
func (fs filterSpan) remove() error {
	return fs.owner.Filter().PlannerByID(fs.typeID).RemoveSpan(fs.span)
}

// Allocation is the selected resource set emitted for a matched job
// (paper §3.2 step 7).
type Allocation struct {
	JobID    int64
	At       int64
	Duration int64
	// Reserved is true when the allocation is a future reservation
	// rather than an immediate allocation.
	Reserved bool
	// idleEnd marks an allocation whose end the idle index holds: one
	// with a span on an indexed vertex.
	idleEnd bool
	// Vertices lists the selected vertices; entries with Units 0 are
	// shared structural vertices granting traversal only. It is the full
	// record, covered entries included (cover.go).
	Vertices []VertexAlloc

	filterSpans []filterSpan
}

// Describe renders the selected resource set, one "path[units]" per
// consuming vertex, sorted by path.
func (a *Allocation) Describe() string {
	parts := make([]string, 0, len(a.Vertices))
	for _, va := range a.Vertices {
		if va.Units > 0 {
			parts = append(parts, fmt.Sprintf("%s[%d]", va.V.Path(), va.Units))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Units returns the total units of the given resource type granted to the
// job (e.g. Units("core") for core-seconds accounting).
func (a *Allocation) Units(typ string) int64 {
	var n int64
	for _, va := range a.Vertices {
		if va.V.Type == typ {
			n += va.Units
		}
	}
	return n
}

// Nodes returns the distinct node-type vertices granted to the job,
// including shared structural nodes.
func (a *Allocation) Nodes() []*resgraph.Vertex {
	var out []*resgraph.Vertex
	seen := make(map[int64]bool)
	for _, va := range a.Vertices {
		if va.V.Type == "node" && !seen[va.V.UniqID] {
			seen[va.V.UniqID] = true
			out = append(out, va.V)
		}
	}
	return out
}

// effectiveDuration clamps a jobspec duration (0 = unlimited) to the
// planner horizon starting at `at`.
func (t *Traverser) effectiveDuration(js *jobspec.Jobspec, at int64) int64 {
	max := t.g.Base() + t.g.Horizon() - at
	if js.Duration <= 0 || js.Duration > max {
		return max
	}
	return js.Duration
}

// MatchAllocate matches js at time `at` and commits the allocation under
// jobID. It fails with ErrNoMatch when the system cannot host the request
// at that time.
func (t *Traverser) MatchAllocate(jobID int64, js *jobspec.Jobspec, at int64) (*Allocation, error) {
	cjs, err := t.Compile(js)
	if err != nil {
		return nil, err
	}
	return t.MatchAllocateCompiled(jobID, cjs, at)
}

// MatchAllocateCompiled is MatchAllocate for a precompiled jobspec,
// skipping the per-call validation and compilation pass.
func (t *Traverser) MatchAllocateCompiled(jobID int64, cjs *jobspec.Compiled, at int64) (*Allocation, error) {
	return t.MatchAllocateCompiledSig(jobID, cjs, at, nil)
}

// MatchAllocateCompiledSig is MatchAllocateCompiled that, on ErrNoMatch,
// captures the attempt's blocking signature into sig (previous contents
// are discarded). sig may be nil to skip capture.
func (t *Traverser) MatchAllocateCompiledSig(jobID int64, cjs *jobspec.Compiled, at int64, sig *BlockSig) (*Allocation, error) {
	if err := t.checkCompiled(cjs); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.allocs[jobID]; dup {
		return nil, fmt.Errorf("%w: %d", ErrExists, jobID)
	}
	alloc, err := t.tryMatch(jobID, cjs, at, modeCommit, sig)
	if err != nil {
		if sig != nil && errors.Is(err, ErrNoMatch) {
			t.captureHint(cjs, at, t.effectiveDuration(cjs.Spec(), at), sig)
		}
		return nil, err
	}
	t.g.PublishEpoch()
	return alloc, nil
}

// MatchAllocateOrReserve matches js at time `now`, or reserves the
// earliest future time the request fits (paper §3.4: the root filter's
// PlannerMulti enumerates candidate times, Figure 2).
func (t *Traverser) MatchAllocateOrReserve(jobID int64, js *jobspec.Jobspec, now int64) (*Allocation, error) {
	cjs, err := t.Compile(js)
	if err != nil {
		return nil, err
	}
	return t.MatchAllocateOrReserveCompiled(jobID, cjs, now)
}

// MatchAllocateOrReserveCompiled is MatchAllocateOrReserve for a
// precompiled jobspec.
func (t *Traverser) MatchAllocateOrReserveCompiled(jobID int64, cjs *jobspec.Compiled, now int64) (*Allocation, error) {
	return t.MatchAllocateOrReserveCompiledSig(jobID, cjs, now, nil)
}

// MatchAllocateOrReserveCompiledSig is MatchAllocateOrReserveCompiled with
// signature capture. The signature reflects the immediate attempt at
// `now`; when even the reservation probe fails, the signature is marked
// WakeAnyFree since the failure spans future windows it cannot localize.
func (t *Traverser) MatchAllocateOrReserveCompiledSig(jobID int64, cjs *jobspec.Compiled, now int64, sig *BlockSig) (*Allocation, error) {
	if err := t.checkCompiled(cjs); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.allocs[jobID]; dup {
		return nil, fmt.Errorf("%w: %d", ErrExists, jobID)
	}
	if alloc, err := t.tryMatch(jobID, cjs, now, modeCommit, sig); err == nil {
		t.g.PublishEpoch()
		return alloc, nil
	}
	if sig != nil {
		t.captureHint(cjs, now, t.effectiveDuration(cjs.Spec(), now), sig)
	}
	alloc, err := t.reserveProbe(jobID, cjs, now)
	if err != nil {
		if sig != nil {
			sig.WakeAnyFree = true
		}
		return nil, err
	}
	return alloc, nil
}

// reserveProbe is the reservation half of allocate-or-reserve: walk the
// root filter's candidate times and commit the first that matches. Callers
// hold t.mu and have already failed the immediate attempt at `now`. On
// success the reservation's per-vertex claims are published as DeltaClaim
// events so delta subscribers see future capacity being taken.
func (t *Traverser) reserveProbe(jobID int64, cjs *jobspec.Compiled, now int64) (*Allocation, error) {
	rf := t.root.Filter()
	if rf == nil {
		return nil, ErrNoFilter
	}
	ids, units := t.probeIDs[:0], t.probeUnits[:0]
	for _, tc := range cjs.Totals() {
		if tc.Units > 0 && rf.PlannerByID(tc.ID) != nil {
			ids, units = append(ids, tc.ID), append(units, tc.Units)
		}
	}
	t.probeIDs, t.probeUnits = ids, units
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: root filter tracks none of the requested types", ErrNoFilter)
	}
	dur := t.effectiveDuration(cjs.Spec(), now)
	after := now
	for i := 0; i < t.maxReserveDepth; i++ {
		cand, err := rf.AvailPointTimeAfter(after, dur, ids, units)
		if err != nil {
			return nil, fmt.Errorf("%w: no candidate reservation time: %v", ErrNoMatch, err)
		}
		if alloc, err := t.tryMatch(jobID, cjs, cand, modeCommit, nil); err == nil {
			alloc.Reserved = true
			t.publishClaims(alloc)
			t.g.PublishEpoch()
			return alloc, nil
		}
		after = cand
	}
	return nil, fmt.Errorf("%w: gave up after %d candidate times", ErrNoMatch, t.maxReserveDepth)
}

// MatchSatisfy reports whether js could ever be satisfied by the system:
// a capacity-only check that ignores current allocations but counts down
// vertices as absent. The answer is memoised per request shape until the
// graph's topology or status changes (satisfy.go).
func (t *Traverser) MatchSatisfy(js *jobspec.Jobspec) (bool, error) {
	cjs, err := t.Compile(js)
	if err != nil {
		return false, err
	}
	return t.MatchSatisfyCompiled(cjs)
}

// MatchSatisfyCompiled is MatchSatisfy for a precompiled jobspec. A memo
// miss runs the dry match under t.mu, on the traverser's own scratch.
func (t *Traverser) MatchSatisfyCompiled(cjs *jobspec.Compiled) (bool, error) {
	if err := t.checkCompiled(cjs); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.g.RLock()
	defer t.g.RUnlock()
	return t.sat.answer(t, cjs)
}

// Cancel releases all resources held (or reserved) by jobID.
func (t *Traverser) Cancel(jobID int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.remove(jobID)
	t.g.PublishEpoch()
	return err
}

// Evict forcibly releases a job's grants after a resource failure, without
// treating it as a normal cancel: the allocation is returned (detached from
// the traverser) so the queuing layer can account for the work lost and
// requeue the job. Resource-wise it is equivalent to Cancel.
func (t *Traverser) Evict(jobID int64) (*Allocation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	alloc, err := t.remove(jobID)
	t.g.PublishEpoch()
	return alloc, err
}

// remove uninstalls an allocation's planner spans and filter spans.
// Callers hold t.mu.
func (t *Traverser) remove(jobID int64) (*Allocation, error) {
	alloc, ok := t.allocs[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownJob, jobID)
	}
	delete(t.allocs, jobID)
	var firstErr error
	for _, va := range alloc.Vertices {
		if va.span == 0 {
			continue // shared, or covered
		}
		if err := va.V.Planner().RemoveSpan(va.span); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, fs := range alloc.filterSpans {
		if err := fs.remove(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.markDirty(alloc.Vertices, alloc.filterSpans)
	t.publishFrees(alloc)
	// After publishFrees, which read the same vertices' type and labels.
	t.idle.rekeyAll(alloc, false)
	t.idle.dropEnd(alloc)
	return alloc, firstErr
}

// AffectedJobs returns, in ascending order, the IDs of jobs holding any
// grant (consuming or shared-structural) on a vertex in the containment
// subtree rooted at root. These are the jobs a failure of that subtree
// strands.
func (t *Traverser) AffectedJobs(root *resgraph.Vertex) []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.affectedJobs(root)
}

// affectedJobs is AffectedJobs without locking; callers hold t.mu. The
// subtree test is the O(1) pre-order interval check; a vertex with no
// containment path (detached, or outside the containment tree) never
// counts, and neither does anything beneath such a root. Covered entries
// are not walked: their covering entry answers for them, as inside the
// subtree or, when root lies strictly beneath it, by a look at the
// entries it covers.
func (t *Traverser) affectedJobs(root *resgraph.Vertex) []int64 {
	if root == nil || root.Path() == "" {
		return nil
	}
	var out []int64
	for id, alloc := range t.allocs {
		for i := range alloc.Vertices {
			va := &alloc.Vertices[i]
			if va.covered() || va.V.Path() == "" {
				continue
			}
			if va.V.InSubtreeOf(root) ||
				va.span > 0 && va.V != root && root.InSubtreeOf(va.V) && alloc.coveredIn(root) {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkDown takes the containment subtree at path out of service: every job
// with a grant in the subtree is evicted, the subtree's status bits are
// flipped down, and the transitioned capacity is subtracted from every
// ancestor pruning filter (paper §5.5 status dynamism). It returns the
// evicted allocations in ascending job-ID order so the queuing layer can
// requeue them. Marking an already-down subtree is a no-op.
func (t *Traverser) MarkDown(path string) ([]*Allocation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.g.ByPath(path)
	if v == nil {
		return nil, fmt.Errorf("traverser: no vertex at %q", path)
	}
	var evicted []*Allocation
	for _, id := range t.affectedJobs(v) {
		alloc, err := t.remove(id)
		if err != nil {
			return evicted, err
		}
		evicted = append(evicted, alloc)
	}
	synced := t.idle.synced(t.g)
	_, err := t.g.MarkDown(v)
	t.idle.statusChanged(t.g, v, synced)
	if err != nil {
		return evicted, err
	}
	// g.MarkDown publishes when status flipped; this covers the
	// already-down case where only evictions above dirtied state.
	t.g.PublishEpoch()
	return evicted, nil
}

// MarkUp returns the containment subtree at path to service, restoring the
// transitioned capacity to every ancestor pruning filter.
func (t *Traverser) MarkUp(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.g.ByPath(path)
	if v == nil {
		return fmt.Errorf("traverser: no vertex at %q", path)
	}
	synced := t.idle.synced(t.g)
	_, err := t.g.MarkUp(v)
	t.idle.statusChanged(t.g, v, synced)
	return err
}

// Attach grafts sub, a subtree built into this traverser's graph after
// Finalize, beneath parent (elasticity, paper §5.5). Growing the ancestor
// filters is a planner edit like any other, so it runs under t.mu.
func (t *Traverser) Attach(parent, sub *resgraph.Vertex) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	synced := t.idle.synced(t.g)
	if err := t.g.Attach(parent, sub); err != nil {
		t.idle.invalidate()
		return err
	}
	t.idle.attached(t.g, sub, synced)
	return nil
}

// Detach prunes the containment subtree at path from the graph; it fails
// with resgraph.ErrBusy while any planner in the subtree holds spans, or
// any job holds a covered entry there.
func (t *Traverser) Detach(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.g.ByPath(path)
	if v == nil {
		return fmt.Errorf("traverser: no vertex at %q", path)
	}
	// A covered entry holds its vertex without a span the graph could see.
	for id, a := range t.allocs {
		if a.coveredIn(v) {
			return fmt.Errorf("%w: job %d holds %s whole from above", resgraph.ErrBusy, id, path)
		}
	}
	synced, rs := t.idle.synced(t.g), t.idle.detachRange(v)
	if err := t.g.Detach(v); err != nil {
		if !errors.Is(err, resgraph.ErrBusy) {
			t.idle.invalidate()
		}
		return err
	}
	t.idle.detached(t.g, rs, synced)
	return nil
}

// Grant names one vertex grant for Reinstall: the vertex's containment
// path and the units planned on it (0 for shared structural vertices).
type Grant struct {
	Path  string `json:"path"`
	Units int64  `json:"units"`
}

// Grants renders an allocation's selections as path/unit pairs, the
// serializable form consumed by Reinstall.
func (a *Allocation) Grants() []Grant {
	out := make([]Grant, 0, len(a.Vertices))
	for _, va := range a.Vertices {
		out = append(out, Grant{Path: va.V.Path(), Units: va.Units})
	}
	return out
}

// Reinstall re-creates an allocation from its serialized grants without
// matching — the restore path for checkpointed scheduler state. The grant
// windows must still fit (a conflicting live allocation fails the call
// atomically), and ancestor filters are updated exactly as a fresh match
// would have (SDFU).
func (t *Traverser) Reinstall(jobID int64, at, duration int64, reserved bool, grants []Grant) (*Allocation, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.allocs[jobID]; dup {
		return nil, fmt.Errorf("%w: %d", ErrExists, jobID)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("%w: duration %d", ErrNoMatch, duration)
	}
	alloc := &Allocation{JobID: jobID, At: at, Duration: duration, Reserved: reserved}
	alloc.Vertices = make([]VertexAlloc, 0, len(grants))
	for _, gr := range grants {
		v := t.g.ByPath(gr.Path)
		if v == nil {
			return nil, fmt.Errorf("%w: no vertex at %q", ErrNoMatch, gr.Path)
		}
		if gr.Units < 0 {
			return nil, fmt.Errorf("%w: negative units %d at %q", ErrNoMatch, gr.Units, gr.Path)
		}
		alloc.Vertices = append(alloc.Vertices, VertexAlloc{V: v, Units: gr.Units})
	}
	if err := t.install(alloc, true); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoMatch, err)
	}
	t.g.PublishEpoch()
	return alloc, nil
}

// Release shrinks a malleable job (paper §5.5): the grants whose vertex
// paths appear in paths are removed from the job's allocation and their
// capacity freed, while the rest of the allocation stays intact. Ancestor
// pruning filters are rebuilt from the remaining grants. Releasing every
// consuming vertex is equivalent to Cancel.
func (t *Traverser) Release(jobID int64, paths []string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	alloc, ok := t.allocs[jobID]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownJob, jobID)
	}
	drop := make(map[string]bool, len(paths))
	for _, p := range paths {
		drop[p] = true
	}
	// Validate first so a bad path changes nothing.
	matched := make(map[string]bool, len(paths))
	for _, va := range alloc.Vertices {
		if drop[va.V.Path()] {
			matched[va.V.Path()] = true
		}
	}
	for _, p := range paths {
		if !matched[p] {
			return fmt.Errorf("%w: job %d holds nothing at %q", ErrUnknownJob, jobID, p)
		}
	}
	// Whatever is released, every entry kept or dropped plans its own span
	// from here on.
	if err := t.uncover(alloc); err != nil {
		return err
	}
	kept := alloc.Vertices[:0]
	remaining := int64(0)
	for _, va := range alloc.Vertices {
		if drop[va.V.Path()] {
			if va.Units > 0 {
				if err := va.V.Planner().RemoveSpan(va.span); err != nil {
					return err
				}
				t.idle.rekey(va.V)
				t.g.MarkEpochDirty()
				t.g.PublishSpanDelta(resgraph.DeltaFree, va.V, va.Units, alloc.At, alloc.At+alloc.Duration)
			}
			continue
		}
		kept = append(kept, va)
		remaining += va.Units
	}
	alloc.Vertices = kept
	// Rebuild the filter spans from the surviving grants (SDFU over the
	// reduced selection).
	t.markDirty(nil, alloc.filterSpans)
	for _, fs := range alloc.filterSpans {
		if err := fs.remove(); err != nil {
			return err
		}
	}
	alloc.filterSpans = nil
	gone := remaining == 0 && len(alloc.Vertices) == 0
	if gone || !t.idle.holds(alloc) {
		t.idle.dropEnd(alloc)
	}
	if gone {
		delete(t.allocs, jobID)
		t.g.PublishEpoch()
		return nil
	}
	err := t.updateFilters(alloc, false)
	t.g.PublishEpoch()
	return err
}

// Info returns the allocation for jobID.
func (t *Traverser) Info(jobID int64) (*Allocation, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, ok := t.allocs[jobID]
	return a, ok
}

// JobCount returns the number of live jobs without materializing the ID
// slice Jobs builds.
func (t *Traverser) JobCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.allocs)
}

// Jobs returns all live job IDs in ascending order.
func (t *Traverser) Jobs() []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int64, 0, len(t.allocs))
	for id := range t.allocs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matchMode selects what a match attempt does with its selections.
type matchMode int

// Both modes run the same read-only walk with claims held in scratch; they
// differ only in where availability is read and in what happens to a
// successful selection.
const (
	// modeCommit reads the live planners and installs the selection.
	modeCommit matchMode = iota
	// modeDry reads vertex sizes only (capacity check) and discards it.
	modeDry
)

// tryMatch runs one full match attempt at time `at`. The walk writes
// nothing shared; in commit mode a successful selection is then installed
// (vertex spans, SDFU, allocation table). A failed attempt returns
// ErrNoMatch and leaves no trace. Callers hold t.mu; the attempt holds the
// graph's reader lock for the whole traversal, so topology mutations
// (attach/detach, status flips) never interleave with a match — which is
// also what freezes the topology and status bits the match kernel's
// candidate cache relies on.
func (t *Traverser) tryMatch(jobID int64, cjs *jobspec.Compiled, at int64, mode matchMode, sig *BlockSig) (*Allocation, error) {
	t.g.RLock()
	defer t.g.RUnlock()
	return t.tryMatchLocked(jobID, cjs, at, mode, sig)
}

// tryMatchLocked is tryMatch for callers that also hold the graph's
// reader lock.
func (t *Traverser) tryMatchLocked(jobID int64, cjs *jobspec.Compiled, at int64, mode matchMode, sig *BlockSig) (*Allocation, error) {
	dur := t.effectiveDuration(cjs.Spec(), at)
	if dur <= 0 {
		if sig != nil {
			sig.reset(at, 0)
			sig.WakeAnyFree = true
		}
		return nil, fmt.Errorf("%w: time %d outside horizon", ErrNoMatch, at)
	}
	if sig != nil {
		sig.reset(at, dur)
	}

	s := t.scratch
	root := t.root
	s.begin(t.g.UniqBound(), t.g.StructVersion())
	// However the attempt ends — selected, failed, or a panic inside the
	// walk — its claims are dropped on the way out.
	defer s.dropClaims()

	m := matcher{
		t:     t,
		s:     s,
		nodes: cjs.Nodes(),
		at:    at,
		dur:   dur,
		dry:   mode == modeDry,
		sig:   sig,
	}
	// Fast fail: the root filter's aggregates must fit first (paper
	// §3.2: the traversal begins at the graph store root, where the
	// aggregate counts of all requested resources are checked).
	if mode != modeDry && !m.filterAdmits(root, cjs.Totals()) {
		return nil, &noMatchAt{why: "root filter rejects at", at: at}
	}
	// Fast fail: too few vertices idle over the whole window for the
	// ones the request takes whole (idle.go) — the aggregates above
	// cannot see a fragmented window.
	if mode != modeDry {
		if id, short := t.idle.short(t, cjs.Wholes(), at, dur); short > 0 {
			m.note(root, id, short)
			return nil, &noMatchAt{why: "too few idle vertices at", at: at}
		}
	}
	if !m.matchForest(root, cjs.Roots(), false) {
		if sig != nil && len(sig.Reasons) == 0 && !sig.Overflow {
			// Backstop: a failure the walk did not localize (e.g. every
			// candidate was status-down). Wake on any free in the system.
			sig.noteVertex(root, AnyType, 1)
		}
		return nil, &noMatchAt{why: "at", at: at}
	}
	alloc := &Allocation{JobID: jobID, At: at, Duration: dur}
	if mode == modeDry {
		return alloc, nil // a capacity check keeps no selection
	}
	// The selection must outlive this attempt's scratch.
	alloc.Vertices = append(make([]VertexAlloc, 0, len(s.verts)), s.verts...)
	if err := t.install(alloc, false); err != nil {
		return nil, err
	}
	return alloc, nil
}

// install writes a selection into the live planners — one span per
// consuming vertex over the allocation's window, but none on a covered
// one (cover.go), then SDFU — and records the allocation. It is the one
// place a match or Reinstall plans vertex spans; reinstall runs
// Reinstall's guard first. On error it removes exactly the vertex spans it
// added (updateFilters undoes its own) and records nothing. Callers hold
// t.mu.
func (t *Traverser) install(alloc *Allocation, reinstall bool) error {
	covers := t.cover.scan(t, alloc)
	if reinstall {
		if err := t.checkReinstall(alloc, covers); err != nil {
			return err
		}
	}
	for i := range alloc.Vertices {
		va := &alloc.Vertices[i]
		if va.Units == 0 || covers && t.cover.isCovered(va.V) {
			continue
		}
		id, err := va.V.Planner().AddSpan(alloc.At, alloc.Duration, va.Units)
		if err != nil {
			t.unplan(alloc.Vertices[:i])
			return fmt.Errorf("%s: %w", va.V.Path(), err)
		}
		va.span = id
	}
	if err := t.updateFilters(alloc, covers); err != nil {
		t.unplan(alloc.Vertices)
		return err
	}
	t.allocs[alloc.JobID] = alloc
	// After updateFilters, which read the same vertices' parent links.
	if t.idle.rekeyAll(alloc, true) {
		t.idle.addEnd(alloc)
	}
	return nil
}

// unplan removes the vertex spans install added for vas.
func (t *Traverser) unplan(vas []VertexAlloc) {
	for _, va := range vas {
		if va.span > 0 {
			_ = va.V.Planner().RemoveSpan(va.span)
		}
	}
	t.markDirty(vas, nil)
}

// updateFilters is the Scheduler-Driven Filter Update (paper §3.4): for
// every selected consuming vertex, walk its containment ancestors and, at
// each one whose filter tracks the vertex's type, add one span to that
// member planner covering exactly the units of the type selected beneath
// it. Covered entries (covers: install's scan just found some) are folded
// into their covering vertex instead: see foldCovered. Each member span
// is recorded in alloc.filterSpans, which is what remove, Release and the
// rollback below undo. The per-owner requests accumulate in the
// traverser's SDFU scratch (all callers hold t.mu) instead of a freshly
// built map of maps. It is the last step of every install, so it also
// marks the allocation changed for the publish boundary; on failure it
// marks what it touched and install marks the vertices it unplans.
func (t *Traverser) updateFilters(alloc *Allocation, covers bool) error {
	s := &t.scratch.sdfu
	s.begin()
	for i := range alloc.Vertices {
		va := &alloc.Vertices[i]
		if va.Units == 0 || va.covered() {
			continue
		}
		for a := va.V.Parent(); a != nil; a = a.Parent() {
			if a.Filter().PlannerByID(va.V.TypeID) == nil {
				continue
			}
			s.add(a, va.V.TypeID, va.Units)
		}
		if !covers {
			continue
		}
		// A vertex the scan did not mark whose first child it marked
		// covers its whole subtree.
		if kids := va.V.Kids(resgraph.Containment); len(kids) > 0 && t.cover.isCovered(kids[0]) {
			s.foldCovered(va.V)
		}
	}
	n := 0
	for i := range s.owners {
		n += len(s.ids[i])
	}
	alloc.filterSpans = make([]filterSpan, 0, n)
	for i, owner := range s.owners {
		f := owner.Filter()
		for j, typeID := range s.ids[i] {
			span, err := f.PlannerByID(typeID).AddSpan(alloc.At, alloc.Duration, s.counts[i][j])
			if err != nil {
				// Roll back filter spans added so far; vertex spans
				// are rolled back by the caller.
				for _, fs := range alloc.filterSpans {
					_ = fs.remove()
				}
				t.g.MarkEpochDirty()
				alloc.filterSpans = nil
				return fmt.Errorf("traverser: SDFU failed at %s: %w", owner.Path(), err)
			}
			alloc.filterSpans = append(alloc.filterSpans, filterSpan{owner: owner, typeID: typeID, span: span})
		}
	}
	t.markDirty(alloc.Vertices, alloc.filterSpans)
	return nil
}

// markDirty tells the publish boundary that something changed when vas
// holds a consuming vertex or fss a filter span. Callers hold t.mu's
// writer side.
func (t *Traverser) markDirty(vas []VertexAlloc, fss []filterSpan) {
	if len(fss) > 0 {
		t.g.MarkEpochDirty()
		return
	}
	for i := range vas {
		if vas[i].Units > 0 {
			t.g.MarkEpochDirty()
			return
		}
	}
}
