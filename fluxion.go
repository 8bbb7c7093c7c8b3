// Package fluxion is a from-scratch Go implementation of Fluxion, the
// scalable graph-based resource model for HPC scheduling introduced in
// "Fluxion: A Scalable Graph-Based Resource Model for HPC Scheduling
// Challenges" (Patki et al., SC-W/WORKS 2023).
//
// Fluxion represents a system as a directed graph of resource pools —
// clusters, racks, nodes, cores, GPUs, memory, burst buffers, network
// bandwidth, power — connected by typed edges grouped into named
// subsystems. Job requests arrive as abstract resource request graphs
// (canonical jobspecs); a depth-first traverser matches them against the
// store under a pluggable match policy, pruning its search with per-vertex
// aggregate planners and keeping those aggregates current with
// scheduler-driven filter updates.
//
// # Quick start
//
//	f, err := fluxion.New(
//		fluxion.WithRecipeYAML(recipe),           // or WithRecipe / WithJGF / WithGraph
//		fluxion.WithPolicy("first"),
//		fluxion.WithPruneFilters("ALL:core,ALL:node"),
//	)
//	...
//	alloc, err := f.MatchAllocate(1, jobspecYAML)
//	fmt.Println(alloc.Describe())
//	...
//	err = f.Cancel(1)
//
// The implementation lives in internal/ subpackages, which Go lets only
// code inside this module import: internal/planner (resource-over-time
// calendars), internal/resgraph (the store), internal/traverser
// (matching), internal/sched (queuing and backfilling), internal/grug
// (graph generation recipes), internal/jgf (serialization), and
// internal/workload (the paper's evaluation workloads). Callers outside
// the module use this package, which re-exports what they need.
package fluxion

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fluxion/internal/graphml"
	"fluxion/internal/grug"
	"fluxion/internal/jgf"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/query"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
	"fluxion/internal/shard"
	"fluxion/internal/traverser"
)

// Re-exported types: the public API surfaces these directly.
type (
	// Allocation is a selected resource set (immediate or reserved).
	Allocation = traverser.Allocation
	// Grant is one path/units pair inside an allocation.
	Grant = traverser.Grant
	// Jobspec is a parsed canonical job specification.
	Jobspec = jobspec.Jobspec
	// Graph is the resource graph store.
	Graph = resgraph.Graph
	// Vertex is one resource pool in the store.
	Vertex = resgraph.Vertex
	// Recipe is a GRUG generation recipe.
	Recipe = grug.Recipe
	// PruneSpec configures pruning-filter placement.
	PruneSpec = resgraph.PruneSpec
	// ResourceDelta is one published capacity change: a free, a claim, or
	// a structural event, tagged with the touched subtree interval.
	ResourceDelta = resgraph.Delta
)

// Errors re-exported from the matching layer.
var (
	ErrNoMatch    = traverser.ErrNoMatch
	ErrUnknownJob = traverser.ErrUnknownJob
	ErrExists     = traverser.ErrExists
	// ErrUnknownType reports a jobspec requesting a resource type absent
	// from this instance's graph (see ValidateSpec).
	ErrUnknownType = traverser.ErrUnknownType
)

// DefaultHorizon is the planner horizon used unless WithHorizon overrides
// it: about 68 years of seconds, effectively unbounded for scheduling.
const DefaultHorizon = int64(1) << 31

// config collects construction options.
type config struct {
	horizon   int64
	policy    string
	prune     string
	pruneSpec resgraph.PruneSpec
	subsystem string
	shardCut  string
	defense   *sched.DefenseConfig
	shardSup  *shard.SupervisorConfig

	recipe      *grug.Recipe
	recipeYAML  []byte
	jgfData     []byte
	graphmlData []byte
	graph       *resgraph.Graph
}

// Option configures New.
type Option func(*config) error

// WithRecipe builds the store from a GRUG recipe value.
func WithRecipe(r *grug.Recipe) Option {
	return func(c *config) error { c.recipe = r; return nil }
}

// WithRecipeYAML builds the store from a GRUG recipe document.
func WithRecipeYAML(data []byte) Option {
	return func(c *config) error { c.recipeYAML = data; return nil }
}

// WithJGF builds the store from a JSON Graph Format document.
func WithJGF(data []byte) Option {
	return func(c *config) error { c.jgfData = data; return nil }
}

// WithGraphML builds the store from a GraphML document.
func WithGraphML(data []byte) Option {
	return func(c *config) error { c.graphmlData = data; return nil }
}

// WithGraph adopts an already-built store. If the graph is not finalized,
// New applies the prune spec and finalizes it.
func WithGraph(g *resgraph.Graph) Option {
	return func(c *config) error { c.graph = g; return nil }
}

// WithPolicy selects the match policy: "first" (default), "high", "low",
// "locality", or "variation".
func WithPolicy(name string) Option {
	return func(c *config) error { c.policy = name; return nil }
}

// WithPruneFilters installs pruning filters from a flux-style spec such as
// "ALL:core" or "cluster:node,rack:node,node:core".
func WithPruneFilters(spec string) Option {
	return func(c *config) error { c.prune = spec; return nil }
}

// WithPruneSpec installs pruning filters from an already-parsed spec map.
// It is the programmatic twin of WithPruneFilters; the two are mutually
// exclusive.
func WithPruneSpec(spec PruneSpec) Option {
	return func(c *config) error { c.pruneSpec = spec; return nil }
}

// WithHorizon sets the planners' schedulable duration (default
// DefaultHorizon).
func WithHorizon(h int64) Option {
	return func(c *config) error {
		if h <= 0 {
			return fmt.Errorf("fluxion: horizon must be positive")
		}
		c.horizon = h
		return nil
	}
}

// WithSubsystem selects the subsystem the traverser walks (default
// containment).
func WithSubsystem(name string) Option {
	return func(c *config) error { c.subsystem = name; return nil }
}

// Fluxion is the top-level scheduler-facing handle: a resource graph store
// plus a traverser. It is safe for concurrent use.
type Fluxion struct {
	mu sync.Mutex
	g  *resgraph.Graph
	tr *traverser.Traverser
	// MatchTime accumulates wall-clock time spent matching, for
	// benchmark harnesses.
	matchTime time.Duration
	matches   int64
}

// New builds a Fluxion instance from exactly one store source
// (WithRecipe, WithRecipeYAML, WithJGF, or WithGraph).
func New(opts ...Option) (*Fluxion, error) {
	c, g, err := storeFromOptions(opts...)
	if err != nil {
		return nil, err
	}
	policy, err := match.Lookup(c.policy)
	if err != nil {
		return nil, err
	}
	var topts []traverser.Option
	if c.subsystem != "" {
		topts = append(topts, traverser.WithSubsystem(c.subsystem))
	}
	tr, err := traverser.New(g, policy, topts...)
	if err != nil {
		return nil, err
	}
	return &Fluxion{g: g, tr: tr}, nil
}

// storeFromOptions resolves construction options into a finalized graph
// (shared by New and NewSharded): exactly one store source is required,
// and prune filters are applied before finalization.
func storeFromOptions(opts ...Option) (*config, *resgraph.Graph, error) {
	c := &config{horizon: DefaultHorizon}
	spec, err := c.apply(opts)
	if err != nil {
		return nil, nil, err
	}
	if c.sources() != 1 {
		return nil, nil, errors.New("fluxion: exactly one of WithRecipe/WithRecipeYAML/WithJGF/WithGraphML/WithGraph is required")
	}
	g, err := buildStore(c, spec)
	if err != nil {
		return nil, nil, err
	}
	return c, g, nil
}

// apply runs opts over c and resolves the prune filters, given either as
// WithPruneFilters text or as a WithPruneSpec map (not both).
func (c *config) apply(opts []Option) (resgraph.PruneSpec, error) {
	for _, o := range opts {
		if err := o(c); err != nil {
			return nil, err
		}
	}
	if c.prune == "" {
		return c.pruneSpec, nil
	}
	if c.pruneSpec != nil {
		return nil, errors.New("fluxion: WithPruneFilters and WithPruneSpec are mutually exclusive")
	}
	return resgraph.ParsePruneSpec(c.prune)
}

// sources counts the store source options set.
func (c *config) sources() int {
	n := 0
	for _, set := range []bool{c.recipe != nil, c.recipeYAML != nil, c.jgfData != nil, c.graphmlData != nil, c.graph != nil} {
		if set {
			n++
		}
	}
	return n
}

// buildStore materializes the configured store source into a finalized
// graph.
func buildStore(c *config, spec resgraph.PruneSpec) (*resgraph.Graph, error) {
	var g *resgraph.Graph
	var err error
	switch {
	case c.recipeYAML != nil:
		r, err := grug.ParseYAML(c.recipeYAML)
		if err != nil {
			return nil, err
		}
		c.recipe = r
		fallthrough
	case c.recipe != nil:
		g, err = grug.BuildGraph(c.recipe, 0, c.horizon, spec)
	case c.jgfData != nil:
		g, err = jgf.Decode(c.jgfData, 0, c.horizon, spec)
	case c.graphmlData != nil:
		g, err = graphml.Decode(c.graphmlData, 0, c.horizon, spec)
	default:
		g = c.graph
		if !g.Finalized() {
			if len(spec) > 0 {
				if err := g.SetPruneSpec(spec); err != nil {
					return nil, err
				}
			}
			err = g.Finalize()
		}
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Graph returns the underlying resource graph store.
func (f *Fluxion) Graph() *resgraph.Graph { return f.g }

// Stat summarizes the store.
func (f *Fluxion) Stat() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("%s; %d jobs; %d matches in %v",
		f.g.Stats(), f.tr.JobCount(), f.matches, f.matchTime)
}

// MatchStats returns the cumulative number of match operations and the
// wall-clock time they took.
func (f *Fluxion) MatchStats() (int64, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.matches, f.matchTime
}

// ParseJobspec decodes a canonical jobspec document.
func ParseJobspec(data []byte) (*Jobspec, error) { return jobspec.ParseYAML(data) }

// MatchAllocate matches a jobspec at time `at` and commits the allocation
// under jobID.
func (f *Fluxion) MatchAllocate(jobID int64, spec *Jobspec, at int64) (*Allocation, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := time.Now()
	alloc, err := f.tr.MatchAllocate(jobID, spec, at)
	f.note(start)
	return alloc, err
}

// SetDeltaSink registers fn to receive every capacity delta the store
// publishes (frees on cancel/release, claims on reservation, structural
// events on grow/shrink/up/down). One sink at a time; nil unregisters. The
// sink runs synchronously on the publishing goroutine, possibly under
// graph locks: it must be fast and must not call back into the store. The
// sched package registers its wakeup index here; external callers can tap
// the same stream for monitoring.
func (f *Fluxion) SetDeltaSink(fn func(ResourceDelta)) { f.g.SetDeltaSink(fn) }

// TapDeltas registers fn as an additional observer of the delta stream,
// chaining in front of whatever sink is already installed (typically the
// sched package's wakeup index) instead of displacing it. It returns an
// untap function that restores the previous sink. Taps compose; untap in
// reverse registration order. The durability layer taps the stream to
// notice out-of-band store mutations that must force a snapshot.
func (f *Fluxion) TapDeltas(fn func(ResourceDelta)) (untap func()) {
	prev := f.g.DeltaSink()
	if prev == nil {
		f.g.SetDeltaSink(fn)
	} else {
		f.g.SetDeltaSink(func(d ResourceDelta) {
			prev(d)
			fn(d)
		})
	}
	return func() { f.g.SetDeltaSink(prev) }
}

// MatchAllocateYAML is MatchAllocate for a raw jobspec document.
func (f *Fluxion) MatchAllocateYAML(jobID int64, specYAML []byte, at int64) (*Allocation, error) {
	spec, err := jobspec.ParseYAML(specYAML)
	if err != nil {
		return nil, err
	}
	return f.MatchAllocate(jobID, spec, at)
}

// MatchAllocateOrReserve matches now or reserves the earliest future time
// the request fits.
func (f *Fluxion) MatchAllocateOrReserve(jobID int64, spec *Jobspec, now int64) (*Allocation, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := time.Now()
	alloc, err := f.tr.MatchAllocateOrReserve(jobID, spec, now)
	f.note(start)
	return alloc, err
}

// MatchSatisfy reports whether the request could ever be satisfied
// (capacity-only check).
func (f *Fluxion) MatchSatisfy(spec *Jobspec) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.MatchSatisfy(spec)
}

// Cancel releases a job's resources or reservation.
func (f *Fluxion) Cancel(jobID int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.Cancel(jobID)
}

// Release shrinks a malleable job's allocation: the grants at the given
// vertex paths are freed while the rest of the allocation stays intact
// (paper §5.5).
func (f *Fluxion) Release(jobID int64, paths []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.Release(jobID, paths)
}

// Info returns a job's allocation.
func (f *Fluxion) Info(jobID int64) (*Allocation, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.Info(jobID)
}

// Jobs lists live job IDs.
func (f *Fluxion) Jobs() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.Jobs()
}

// Traverser exposes the underlying traverser for advanced callers (e.g.
// the sched package).
func (f *Fluxion) Traverser() *traverser.Traverser { return f.tr }

// ValidateSpec checks a jobspec against this instance before it reaches
// the match kernel: structural well-formedness (positive counts, slot
// shape, the nesting-depth cap) plus graph-aware checks — every
// requested resource type must exist in the graph. Rejections wrap
// jobspec.ErrInvalid or ErrUnknownType. Submitting through
// internal/sched runs this automatically; direct Match callers can
// screen hostile specs with it first.
func (f *Fluxion) ValidateSpec(js *Jobspec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.ValidateSpec(js)
}

// Grow materializes a recipe subtree and attaches it beneath the vertex at
// parentPath (elasticity, paper §5.5). It returns the new subtree root.
func (f *Fluxion) Grow(parentPath string, sub *grug.Recipe) (*Vertex, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	parent := f.g.ByPath(parentPath)
	if parent == nil {
		return nil, fmt.Errorf("fluxion: no vertex at %q", parentPath)
	}
	root, err := grug.Build(f.g, sub)
	if err != nil {
		return nil, err
	}
	if err := f.tr.Attach(parent, root); err != nil {
		return nil, err
	}
	return root, nil
}

// Shrink detaches the subtree rooted at path. It fails if any resource in
// the subtree is allocated or reserved.
func (f *Fluxion) Shrink(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.Detach(path)
}

// MarkDown takes the containment subtree rooted at path out of service:
// every job holding a grant inside it is evicted (its resources released
// everywhere), and the subtree's capacity is subtracted from every
// ancestor pruning filter so subsequent matches route around the failure.
// It returns the evicted allocations so a scheduler can requeue them.
// Marking an already-down subtree is a no-op.
func (f *Fluxion) MarkDown(path string) ([]*Allocation, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.MarkDown(path)
}

// MarkUp returns the subtree rooted at path to service, restoring its
// capacity in every ancestor pruning filter. Previously evicted jobs are
// not replayed; resubmit them through the scheduler.
func (f *Fluxion) MarkUp(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tr.MarkUp(path)
}

// SetStatus marks the vertex at path up or down. It routes through
// MarkUp/MarkDown, so downing a subtree evicts the jobs inside it and
// updates ancestor pruning filters; use MarkDown directly to learn which
// jobs were displaced.
func (f *Fluxion) SetStatus(path string, up bool) error {
	if up {
		return f.MarkUp(path)
	}
	_, err := f.MarkDown(path)
	return err
}

// Find returns the containment paths of vertices matching the given type
// and status filter ("" matches any type; status "up"/"down"/"" filters).
func (f *Fluxion) Find(typ, status string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for _, v := range f.g.Vertices() {
		if typ != "" && v.Type != typ {
			continue
		}
		if status != "" && v.Status.String() != status {
			continue
		}
		out = append(out, v.Path())
	}
	return out
}

// FindExpr returns the containment paths of vertices matching a query
// expression such as "type=node and status=up and perfclass=3" (see
// internal/query for the grammar).
func (f *Fluxion) FindExpr(expr string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	vs, err := query.Select(f.g, expr)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.Path())
	}
	return out, nil
}

// JGF serializes the store to the JSON Graph Format.
func (f *Fluxion) JGF() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return jgf.Encode(f.g)
}

// GraphML serializes the store to GraphML.
func (f *Fluxion) GraphML() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return graphml.Encode(f.g)
}

func (f *Fluxion) note(start time.Time) {
	f.matchTime += time.Since(start)
	f.matches++
}
