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
//     an empty system (capacity-only).
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
	// ErrConflict reports that a speculative allocation lost the race: by
	// commit time another job had taken some of its selected capacity.
	// The speculation is consumed; the caller should re-match.
	ErrConflict = errors.New("traverser: speculative allocation conflicts with committed state")
)

// Option configures a Traverser.
type Option func(*Traverser)

// WithSubsystem selects the subsystem to walk (default containment).
func WithSubsystem(name string) Option {
	return func(t *Traverser) { t.subsystem = name }
}

// EnableSteering turns on per-job first-fit steering: every match attempt
// (speculative or sequential) rotates candidate lists by a jobID-derived
// offset, so concurrent epoch speculators probe disjoint pools instead of
// all claiming the head of the same list and conflicting at commit.
// Placement stays deterministic — a pure function of (jobID, graph state),
// identical on every match path — but differs from the natural first-fit
// order, so direct API users keep it off by default; the scheduler enables
// it when it owns all matching on the traverser. Call before any
// concurrent use; the flag is read without synchronization. No effect on
// ranking policies (they re-sort candidates).
func (t *Traverser) EnableSteering() { t.steer = true }

// Traverser matches jobspecs against a finalized resource graph.
//
// A Traverser is safe for concurrent use. It is the single writer of its
// graph's planners and pruning filters (see package planner): every
// operation that edits them (MatchAllocate, Commit, Cancel, MarkDown,
// Attach, ...) serializes under the writer side of t.mu, and the
// read-only queries and epoch pins run under the reader side.
// MatchSpeculateCompiledEpoch takes no lock at all: it matches against an
// immutable pinned epoch, keeps its tentative claims in private scratch,
// and is validated against committed planner state at Commit time.
// Lock ordering is t.mu, then the graph's lock.
type Traverser struct {
	g               *resgraph.Graph
	policy          match.Policy
	subsystem       string
	maxReserveDepth int              // candidate times MatchAllocateOrReserve probes before giving up
	root            *resgraph.Vertex // cached: Graph.Root self-locks
	containment     bool             // subsystem is containment: subtree intervals are valid
	staticOrder     bool             // policy keeps traversal order: first-fit cursors apply
	steer           bool             // rotate first-fit order per job (see EnableSteering)

	mu     sync.RWMutex
	allocs map[int64]*Allocation
	dirty  []*resgraph.Vertex // markDirty's scratch; guarded by mu (writer side)
	// reserveProbe's request scratch: the root-tracked totals as type IDs
	// and units; guarded by mu (writer side).
	probeIDs   []int32
	probeUnits []int64

	// scratch is the match working memory for paths serialized under
	// t.mu; scratchPool serves the lock-free path
	// (MatchSpeculateCompiledEpoch), which may run concurrently.
	scratch     *matchScratch
	scratchPool sync.Pool
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
	t.scratchPool.New = func() any { return &matchScratch{} }
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
	span  int64 // planner span ID; 0 when Units == 0
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
	// Vertices lists the selected vertices; entries with Units 0 are
	// shared structural vertices granting traversal only.
	Vertices []VertexAlloc

	filterSpans []filterSpan

	// pin is the MVCC epoch this allocation speculated against (nil for
	// allocations that were matched directly). Commit compares it against
	// the current epoch: a still-stable pin proves nothing changed since
	// the match, skipping per-vertex re-validation.
	pin *resgraph.Epoch
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
	alloc, err := t.tryMatch(jobID, cjs, at, modeCommit, sig, nil)
	if err != nil {
		if sig != nil && errors.Is(err, ErrNoMatch) {
			t.captureHint(cjs, at, t.effectiveDuration(cjs.Spec(), at), sig)
		}
		return nil, err
	}
	t.allocs[jobID] = alloc
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
	if alloc, err := t.tryMatch(jobID, cjs, now, modeCommit, sig, nil); err == nil {
		t.allocs[jobID] = alloc
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
		if alloc, err := t.tryMatch(jobID, cjs, cand, modeCommit, nil, nil); err == nil {
			alloc.Reserved = true
			t.allocs[jobID] = alloc
			t.publishClaims(alloc)
			t.g.PublishEpoch()
			return alloc, nil
		}
		after = cand
	}
	return nil, fmt.Errorf("%w: gave up after %d candidate times", ErrNoMatch, t.maxReserveDepth)
}

// MatchSatisfy reports whether js could ever be satisfied by the system,
// ignoring current allocations (capacity-only check).
func (t *Traverser) MatchSatisfy(js *jobspec.Jobspec) (bool, error) {
	cjs, err := t.Compile(js)
	if err != nil {
		return false, err
	}
	return t.MatchSatisfyCompiled(cjs)
}

// MatchSatisfyCompiled is MatchSatisfy for a precompiled jobspec. The dry
// match runs under t.mu, on the traverser's own scratch: a submit-time
// check has no use for a second graph-sized working set, and a pooled one
// would live or die with the collector's pacing.
func (t *Traverser) MatchSatisfyCompiled(cjs *jobspec.Compiled) (bool, error) {
	if err := t.checkCompiled(cjs); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.tryMatch(0, cjs, t.g.Base(), modeDry, nil, nil)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrNoMatch):
		return false, nil
	default:
		return false, err
	}
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
		if va.Units == 0 {
			continue
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

// affectedJobs is AffectedJobs without locking; callers hold t.mu.
func (t *Traverser) affectedJobs(root *resgraph.Vertex) []int64 {
	if root == nil {
		return nil
	}
	prefix := root.Path()
	var out []int64
	for id, alloc := range t.allocs {
		for _, va := range alloc.Vertices {
			if pathWithin(va.V.Path(), prefix) {
				out = append(out, id)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pathWithin reports whether path lies at or beneath root in the
// containment hierarchy ("/a/b" is within "/a" but "/ab" is not).
func pathWithin(path, root string) bool {
	if root == "" || path == "" {
		return false
	}
	if path == root {
		return true
	}
	return strings.HasPrefix(path, root) && len(path) > len(root) && path[len(root)] == '/'
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
	if _, err := t.g.MarkDown(v); err != nil {
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
	_, err := t.g.MarkUp(v)
	return err
}

// Attach grafts sub, a subtree built into this traverser's graph after
// Finalize, beneath parent (elasticity, paper §5.5). Growing the ancestor
// filters is a planner edit like any other, so it runs under t.mu.
func (t *Traverser) Attach(parent, sub *resgraph.Vertex) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.g.Attach(parent, sub)
}

// Detach prunes the containment subtree at path from the graph; it fails
// with resgraph.ErrBusy while any planner in the subtree holds spans.
func (t *Traverser) Detach(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.g.ByPath(path)
	if v == nil {
		return fmt.Errorf("traverser: no vertex at %q", path)
	}
	return t.g.Detach(v)
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
	rollback := func() {
		for _, va := range alloc.Vertices {
			if va.Units > 0 {
				_ = va.V.Planner().RemoveSpan(va.span)
			}
		}
		t.markDirty(alloc.Vertices, nil)
	}
	for _, gr := range grants {
		v := t.g.ByPath(gr.Path)
		if v == nil {
			rollback()
			return nil, fmt.Errorf("%w: no vertex at %q", ErrNoMatch, gr.Path)
		}
		if gr.Units < 0 {
			rollback()
			return nil, fmt.Errorf("%w: negative units %d at %q", ErrNoMatch, gr.Units, gr.Path)
		}
		va := VertexAlloc{V: v, Units: gr.Units}
		if gr.Units > 0 {
			id, err := v.Planner().AddSpan(at, duration, gr.Units)
			if err != nil {
				rollback()
				return nil, fmt.Errorf("%w: %q: %v", ErrNoMatch, gr.Path, err)
			}
			va.span = id
		}
		alloc.Vertices = append(alloc.Vertices, va)
	}
	if err := t.updateFilters(alloc); err != nil {
		rollback()
		return nil, err
	}
	t.allocs[jobID] = alloc
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
	kept := alloc.Vertices[:0]
	remaining := int64(0)
	for _, va := range alloc.Vertices {
		if drop[va.V.Path()] {
			if va.Units > 0 {
				if err := va.V.Planner().RemoveSpan(va.span); err != nil {
					return err
				}
				t.g.MarkEpochDirty(va.V)
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
	if remaining == 0 && len(alloc.Vertices) == 0 {
		delete(t.allocs, jobID)
		t.g.PublishEpoch()
		return nil
	}
	err := t.updateFilters(alloc)
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

const (
	// modeCommit plans spans eagerly and installs filter spans (SDFU).
	modeCommit matchMode = iota
	// modeDry checks capacity only: no spans, no claims.
	modeDry
	// modeSnap speculates against the pinned epoch ep: tentative claims
	// stay in the attempt's private scratch, and the selection is
	// validated and installed later by Commit (or simply dropped).
	modeSnap
)

// tryMatch runs one full match attempt at time `at`. In commit mode the
// vertex spans are committed and ancestor filters updated (SDFU) on
// success; on failure everything is rolled back and ErrNoMatch returned.
//
// Commit and dry attempts pass ep == nil and hold the graph's reader lock
// for the whole traversal, so topology mutations (attach/detach, status
// flips) never interleave with a match — which is also what freezes the
// topology and status bits the match kernel's candidate cache relies on.
// Speculations (modeSnap) pass the pinned epoch and take no graph lock at
// all: every status bit, subtree label, planner window, and pruning filter
// is read from the immutable snapshot.
func (t *Traverser) tryMatch(jobID int64, cjs *jobspec.Compiled, at int64, mode matchMode, sig *BlockSig, ep *resgraph.Epoch) (*Allocation, error) {
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

	// Commit and dry attempts run under t.mu, so the traverser's own
	// scratch is free; lock-free speculations draw from the pool.
	var s *matchScratch
	if mode != modeSnap {
		s = t.scratch
	} else {
		s = t.scratchPool.Get().(*matchScratch)
		defer t.scratchPool.Put(s)
	}

	root := t.root
	if ep == nil {
		t.g.RLock()
		defer t.g.RUnlock()
		s.begin(t.g.UniqBound(), t.g.StructVersion())
	} else {
		s.begin(ep.UniqBound(), ep.StructVersion())
	}

	m := matcher{
		t:     t,
		s:     s,
		nodes: cjs.Nodes(),
		at:    at,
		dur:   dur,
		dry:   mode == modeDry,
		ep:    ep,
		sig:   sig,
	}
	// Fast fail: the root filter's aggregates must fit first (paper
	// §3.2: the traversal begins at the graph store root, where the
	// aggregate counts of all requested resources are checked).
	if mode != modeDry && !m.filterAdmits(root, cjs.Totals()) {
		return nil, fmt.Errorf("%w: root filter rejects at t=%d", ErrNoMatch, at)
	}
	if t.steer && t.staticOrder {
		// Divergence steering without shared state: each match attempt
		// rotates first-fit candidate lists by a jobID-derived offset, so
		// concurrent speculators probe disjoint pools instead of all
		// racing for the head of the same list. The rotation applies on
		// every path (speculative and sequential alike), making a job's
		// placement a pure function of (jobID, graph state) — speculation
		// and its sequential fallback agree, which keeps sequential and
		// parallel runs decision-identical.
		m.rot = splitmix64(uint64(jobID))
	}
	if !m.matchForest(root, cjs.Roots(), false) {
		m.rollbackTo(0)
		if sig != nil && len(sig.Reasons) == 0 && !sig.Overflow {
			// Backstop: a failure the walk did not localize (e.g. every
			// candidate was status-down). Wake on any free in the system.
			sig.noteVertex(root, AnyType, 1)
		}
		return nil, fmt.Errorf("%w: at t=%d", ErrNoMatch, at)
	}
	alloc := &Allocation{JobID: jobID, At: at, Duration: dur}
	switch mode {
	case modeCommit:
		alloc.Vertices = append(make([]VertexAlloc, 0, len(s.verts)), s.verts...)
		if err := t.updateFilters(alloc); err != nil {
			m.rollbackTo(0)
			return nil, err
		}
	case modeDry:
		m.rollbackTo(0)
	case modeSnap:
		// The selection must outlive this attempt's scratch. Tentative
		// claims are scratch-local; zero them so the pooled scratch comes
		// back clean.
		alloc.Vertices = append(make([]VertexAlloc, 0, len(s.verts)), s.verts...)
		alloc.pin = ep
		for _, va := range s.verts {
			if va.Units > 0 {
				s.tentative[va.V.UniqID] -= va.Units
			}
		}
	}
	return alloc, nil
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed hash
// of a job ID into a rotation offset.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PinEpoch returns the graph's current MVCC epoch for a batch of epoch
// speculations. Epochs are materialised on demand, so the pin holds t.mu's
// reader side across the call: a build then reads the planners between two
// mutating operations, never in the middle of one, and every allocation is
// in the epoch whole or not at all.
func (t *Traverser) PinEpoch() *resgraph.Epoch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.g.Epoch()
}

// MatchSpeculateCompiledEpoch matches cjs at time `at` against ep, an epoch
// from PinEpoch, without committing anything: the returned Allocation is
// tentative and is installed by Commit or simply dropped — an uncommitted
// speculation publishes nothing. The attempt runs with zero
// synchronization against the epoch's immutable snapshots, so many
// goroutines may speculate concurrently, typically a scheduling cycle
// fanning a whole batch out against one pin.
func (t *Traverser) MatchSpeculateCompiledEpoch(jobID int64, cjs *jobspec.Compiled, at int64, ep *resgraph.Epoch) (*Allocation, error) {
	if err := t.checkCompiled(cjs); err != nil {
		return nil, err
	}
	if ep == nil {
		return nil, fmt.Errorf("traverser: speculation needs a pinned epoch")
	}
	t.mu.RLock()
	_, dup := t.allocs[jobID]
	t.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %d", ErrExists, jobID)
	}
	return t.tryMatch(jobID, cjs, at, modeSnap, nil, ep)
}

// Commit validates a speculative allocation against committed planner
// state and installs it. For an epoch speculation whose pinned epoch is
// still stable — nothing committed, released, or flipped since the pin —
// re-validation is one version comparison and the per-vertex conflict
// re-walk (status, exclusive-takeover probes) is skipped entirely; spans
// are still installed, which is the commit itself. Otherwise conflict
// detection is inherent: each selection is re-planned with AddSpan, which
// fails if a concurrent commit took the capacity first; shared structural
// vertices are re-checked for exclusive takeover and detached or downed
// vertices rejected. On any conflict every span added so far is rolled
// back and ErrConflict returned — the job must be re-matched.
func (t *Traverser) Commit(alloc *Allocation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.commitSpans(alloc)
	if err == nil {
		t.g.PublishEpoch()
	}
	return err
}

// commitSpans is Commit's validation and span installation; callers hold
// t.mu. Split out so the epoch publication above runs after the graph
// reader lock is released.
func (t *Traverser) commitSpans(alloc *Allocation) error {
	if _, dup := t.allocs[alloc.JobID]; dup {
		return fmt.Errorf("%w: %d", ErrExists, alloc.JobID)
	}
	t.g.RLock()
	defer t.g.RUnlock()
	// Stability is checked under the reader lock (writers excluded) and
	// t.mu (committers serialized): if the pinned epoch is still current
	// with nothing pending, the state the speculation matched against is
	// the state being committed into.
	fast := alloc.pin != nil && t.g.EpochStable(alloc.pin)
	rollback := func(n int) {
		for _, va := range alloc.Vertices[:n] {
			if va.Units > 0 {
				_ = va.V.Planner().RemoveSpan(va.span)
			}
		}
		t.markDirty(alloc.Vertices[:n], nil)
	}
	for i := range alloc.Vertices {
		va := &alloc.Vertices[i]
		if !fast {
			if !va.V.Attached() || va.V.Status != resgraph.StatusUp {
				rollback(i)
				return fmt.Errorf("%w: %s went down", ErrConflict, va.V.Path())
			}
		}
		if va.Units == 0 {
			if fast {
				continue
			}
			// Shared structural grant: the vertex must not have been
			// exclusively taken since speculation.
			if avail, err := va.V.Planner().AvailDuring(alloc.At, alloc.Duration); err != nil || avail <= 0 {
				rollback(i)
				return fmt.Errorf("%w: %s exclusively taken", ErrConflict, va.V.Path())
			}
			continue
		}
		id, err := va.V.Planner().AddSpan(alloc.At, alloc.Duration, va.Units)
		if err != nil {
			rollback(i)
			return fmt.Errorf("%w: %s: %v", ErrConflict, va.V.Path(), err)
		}
		va.span = id
	}
	if err := t.updateFilters(alloc); err != nil {
		rollback(len(alloc.Vertices))
		return fmt.Errorf("%w: %v", ErrConflict, err)
	}
	t.allocs[alloc.JobID] = alloc
	return nil
}

// updateFilters is the Scheduler-Driven Filter Update (paper §3.4): for
// every selected consuming vertex, walk its containment ancestors and, at
// each one whose filter tracks the vertex's type, add one span to that
// member planner covering exactly the units of the type selected beneath
// it. Each member span is recorded in alloc.filterSpans, which is what
// remove, Release and the rollback below undo. The per-owner requests
// accumulate in the traverser's SDFU scratch (all callers hold t.mu)
// instead of a freshly built map of maps. It is the last step of every span installation, so it
// also marks the whole allocation — vertices and filter owners — dirty for
// the epoch layer; on failure it marks what it touched and the caller's
// rollback marks the vertices.
func (t *Traverser) updateFilters(alloc *Allocation) error {
	s := &t.scratch.sdfu
	s.begin()
	for _, va := range alloc.Vertices {
		if va.Units == 0 {
			continue
		}
		for a := va.V.Parent(); a != nil; a = a.Parent() {
			if a.Filter().PlannerByID(va.V.TypeID) == nil {
				continue
			}
			s.add(a, va.V.TypeID, va.Units)
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
				t.markDirty(nil, alloc.filterSpans)
				t.g.MarkEpochDirty(owner)
				alloc.filterSpans = nil
				return fmt.Errorf("traverser: SDFU failed at %s: %w", owner.Path(), err)
			}
			alloc.filterSpans = append(alloc.filterSpans, filterSpan{owner: owner, typeID: typeID, span: span})
		}
	}
	t.markDirty(alloc.Vertices, alloc.filterSpans)
	return nil
}

// markDirty tells the epoch layer that the planners of vas' consuming
// vertices and the filters of fss' owners changed, under one acquisition
// of its lock instead of one per vertex. Callers hold t.mu's writer side.
func (t *Traverser) markDirty(vas []VertexAlloc, fss []filterSpan) {
	d := t.dirty[:0]
	for i := range vas {
		if vas[i].Units > 0 {
			d = append(d, vas[i].V)
		}
	}
	for i := range fss {
		d = append(d, fss[i].owner)
	}
	t.g.MarkEpochDirty(d...)
	t.dirty = d[:0]
}
