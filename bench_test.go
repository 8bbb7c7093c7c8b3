package fluxion_test

// Benchmarks mirroring the paper's evaluation (§6). Each testing.B target
// measures the code path behind one figure:
//
//   - BenchmarkLODMatch / BenchmarkLODFill  -> Fig. 6a (E1)
//   - BenchmarkPlanner*                      -> Fig. 6b (E2)
//   - BenchmarkVarAwareSchedule              -> Fig. 7b (E4)
//
// The benches run at reduced scale so `go test -bench=.` finishes in
// minutes; cmd/fluxion-bench reproduces the full paper-scale tables.

import (
	"fluxion"
	"fmt"
	"testing"

	"fluxion/internal/experiments"
	"fluxion/internal/grug"
	"fluxion/internal/jobspec"
	"fluxion/internal/match"
	"fluxion/internal/planner"
	"fluxion/internal/resgraph"
	"fluxion/internal/traverser"
)

// benchRacks scales the 18-node-per-rack LOD systems for benchmarking.
const benchRacks = 4 // 72 nodes

// lodTraverser builds one Fig. 6a configuration and pre-fills half the
// system so the measured match works against a realistic mixed state.
func lodTraverser(b *testing.B, recipe *grug.Recipe, prune bool) *traverser.Traverser {
	b.Helper()
	var spec resgraph.PruneSpec
	if prune {
		spec = resgraph.PruneSpec{resgraph.ALL: {"core"}}
	}
	g, err := grug.BuildGraph(recipe, 0, 1<<31, spec)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		b.Fatal(err)
	}
	js := experiments.LODJobspec()
	half := benchRacks * 18 * 4 / 2
	for id := int64(1); id <= int64(half); id++ {
		if _, err := tr.MatchAllocate(id, js, 0); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

// BenchmarkLODMatch measures one §6.1 match-allocate (plus its cancel) on
// a half-loaded system for each LOD × pruning configuration.
func BenchmarkLODMatch(b *testing.B) {
	labels := []string{"High", "Med", "Low", "Low2"}
	for i, recipe := range grug.LODPresetsScaled(benchRacks) {
		for _, prune := range []bool{false, true} {
			name := labels[i]
			if prune {
				name += "Prune"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				tr := lodTraverser(b, recipe, prune)
				js := experiments.LODJobspec()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					id := int64(1_000_000 + n)
					if _, err := tr.MatchAllocate(id, js, 0); err != nil {
						b.Fatal(err)
					}
					if err := tr.Cancel(id); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSlotMatch sweeps the slot count of a slot[N]{core[2]}
// request on a 1024-core system. Matching a count-N slot repeats its
// shape N times under the same parent, which is exactly what the match
// kernel's candidate-list cache and first-fit cursor accelerate: the
// subtree is collected once and each instance resumes past the
// candidates its predecessors exhausted.
func BenchmarkSlotMatch(b *testing.B) {
	for _, slots := range []int64{1, 16, 256} {
		b.Run(fmt.Sprintf("slots-%d", slots), func(b *testing.B) {
			b.ReportAllocs()
			g, err := grug.BuildGraph(grug.Small(4, 16, 16, 0, 0), 0, 1<<31,
				resgraph.PruneSpec{resgraph.ALL: {"core"}})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := traverser.New(g, match.First{})
			if err != nil {
				b.Fatal(err)
			}
			js := jobspec.New(0, jobspec.SlotR(slots, jobspec.R("core", 2)))
			cjs, err := tr.Compile(js)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				id := int64(1_000_000 + n)
				if _, err := tr.MatchAllocateCompiled(id, cjs, 0); err != nil {
					b.Fatal(err)
				}
				if err := tr.Cancel(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLODFill runs the complete E1 protocol (fill the system until
// the first failed match) per iteration, at 2 racks.
func BenchmarkLODFill(b *testing.B) {
	for _, cfg := range experiments.LODConfigs(2) {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				r, err := experiments.RunLODConfig(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Matches == 0 {
					b.Fatal("no matches")
				}
			}
		})
	}
}

// plannerSizes is the Fig. 6b pre-population sweep used for benches.
var plannerSizes = []int{1_000, 10_000, 100_000}

func prepopulated(b *testing.B, spans int) *planner.Planner {
	b.Helper()
	p, err := experiments.PrepopulatePlanner(spans, 42)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkPlannerSatAt measures instantaneous satisfiability queries
// (Fig. 6b, SatAt series).
func BenchmarkPlannerSatAt(b *testing.B) {
	for _, spans := range plannerSizes {
		b.Run(fmt.Sprintf("spans-%d", spans), func(b *testing.B) {
			b.ReportAllocs()
			p := prepopulated(b, spans)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r := int64(1) << (n % 8)
				p.CanFit(int64(n)%43200, 1, r)
			}
		})
	}
}

// BenchmarkPlannerSatDuring measures windowed satisfiability queries
// (Fig. 6b, SatDuring series).
func BenchmarkPlannerSatDuring(b *testing.B) {
	for _, spans := range plannerSizes {
		b.Run(fmt.Sprintf("spans-%d", spans), func(b *testing.B) {
			b.ReportAllocs()
			p := prepopulated(b, spans)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r := int64(1) << (n % 8)
				d := int64(n%experiments.PlannerMaxDur) + 1
				p.CanFit(int64(n)%43200, d, r)
			}
		})
	}
}

// BenchmarkPlannerEarliestAt measures the earliest-fit search — paper
// Algorithm 1 as a min-prefix descent of the time-keyed tree (Fig. 6b,
// EarliestAt series).
func BenchmarkPlannerEarliestAt(b *testing.B) {
	for _, spans := range plannerSizes {
		b.Run(fmt.Sprintf("spans-%d", spans), func(b *testing.B) {
			b.ReportAllocs()
			p := prepopulated(b, spans)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r := int64(1) << (n % 8)
				if _, err := p.AvailTimeFirst(0, 1, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerAddRemoveSpan measures the span update path (the cost
// SDFU pays per filter vertex).
func BenchmarkPlannerAddRemoveSpan(b *testing.B) {
	for _, spans := range plannerSizes {
		b.Run(fmt.Sprintf("spans-%d", spans), func(b *testing.B) {
			b.ReportAllocs()
			p := prepopulated(b, spans)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				at, err := p.AvailTimeFirst(0, 10, 1)
				if err != nil {
					b.Fatal(err)
				}
				id, err := p.AddSpan(at, 10, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.RemoveSpan(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlannerAddRemoveLongSpan measures the span update path when the
// span covers about half the occupied calendar — the regime in which an
// update that visits every covered point is linear in the span count. The
// pool grows by one unit first so the one-unit span always fits.
func BenchmarkPlannerAddRemoveLongSpan(b *testing.B) {
	for _, spans := range plannerSizes {
		b.Run(fmt.Sprintf("spans-%d", spans), func(b *testing.B) {
			b.ReportAllocs()
			p := prepopulated(b, spans)
			if err := p.Update(1); err != nil {
				b.Fatal(err)
			}
			var end int64
			p.Points(func(at, _ int64) bool { end = at; return true })
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				id, err := p.AddSpan(end/4, end/2, 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.RemoveSpan(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVarAwareSchedule runs the §6.3 initial scheduling pass (one
// conservative-backfilling cycle over a queue snapshot) per policy, at
// reduced scale.
func BenchmarkVarAwareSchedule(b *testing.B) {
	cfg := experiments.VarAwareConfig{
		Racks: 8, NodesPerRack: 16, CoresPerNode: 16,
		Jobs: 60, MaxJobNodes: 32, Seed: 2023,
	}
	for _, policy := range experiments.VarAwarePolicies {
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				run, err := experiments.RunVarAwarePolicy(cfg, policy)
				if err != nil {
					b.Fatal(err)
				}
				if run.Immediate+run.Reserved != cfg.Jobs {
					b.Fatalf("lost jobs: %+v", run)
				}
			}
		})
	}
}

// BenchmarkReserve measures MatchAllocateOrReserve on a saturated system —
// the root-filter candidate-time search plus a full match (paper §3.4,
// Fig. 2).
func BenchmarkReserve(b *testing.B) {
	b.ReportAllocs()
	g, err := grug.BuildGraph(grug.Small(4, 16, 16, 0, 0), 0, 1<<40,
		resgraph.PruneSpec{resgraph.ALL: {"core", "node"}})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traverser.New(g, match.First{})
	if err != nil {
		b.Fatal(err)
	}
	// Saturate all 64 nodes with staggered finite jobs.
	for id := int64(1); id <= 64; id++ {
		js := jobspec.New(1000+10*id, jobspec.RX("node", 1, jobspec.R("core", 16)))
		if _, err := tr.MatchAllocate(id, js, 0); err != nil {
			b.Fatal(err)
		}
	}
	js := jobspec.New(500, jobspec.RX("node", 4, jobspec.R("core", 16)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := int64(1_000_000 + n)
		alloc, err := tr.MatchAllocateOrReserve(id, js, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !alloc.Reserved {
			b.Fatal("expected a reservation")
		}
		if err := tr.Cancel(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDFU isolates the scheduler-driven filter update by comparing
// allocation cost with deep filter chains versus none (the ablation
// DESIGN.md calls out).
func BenchmarkSDFU(b *testing.B) {
	for _, filters := range []string{"none", "ALL:core"} {
		b.Run(filters, func(b *testing.B) {
			b.ReportAllocs()
			var spec resgraph.PruneSpec
			if filters != "none" {
				spec = resgraph.PruneSpec{resgraph.ALL: {"core"}}
			}
			g, err := grug.BuildGraph(grug.HighLODRacks(2), 0, 1<<31, spec)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := traverser.New(g, match.First{})
			if err != nil {
				b.Fatal(err)
			}
			js := experiments.LODJobspec()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				id := int64(n + 1)
				if _, err := tr.MatchAllocate(id, js, 0); err != nil {
					b.Fatal(err)
				}
				if err := tr.Cancel(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpawnInstance measures hierarchical child-instance creation
// from a 16-node grant (paper §5.6).
func BenchmarkSpawnInstance(b *testing.B) {
	b.ReportAllocs()
	parent, err := fluxion.New(
		fluxion.WithRecipe(grug.Small(4, 8, 16, 0, 0)),
		fluxion.WithPruneFilters("ALL:core,ALL:node"),
	)
	if err != nil {
		b.Fatal(err)
	}
	spec := jobspec.New(0, jobspec.RX("node", 16, jobspec.R("core", 16)))
	if _, err := parent.MatchAllocate(1, spec, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := parent.SpawnInstance(1, fluxion.WithPruneFilters("ALL:core")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore measures full state serialization round
// trips with 64 live allocations.
func BenchmarkCheckpointRestore(b *testing.B) {
	b.ReportAllocs()
	f, err := fluxion.New(
		fluxion.WithRecipe(grug.Small(4, 16, 8, 0, 0)),
		fluxion.WithPruneFilters("ALL:core,ALL:node"),
	)
	if err != nil {
		b.Fatal(err)
	}
	for id := int64(1); id <= 64; id++ {
		if _, err := f.MatchAllocate(id, jobspec.New(1000, jobspec.RX("node", 1, jobspec.R("core", 8))), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		data, err := f.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fluxion.Restore(data, fluxion.WithPruneFilters("ALL:core,ALL:node")); err != nil {
			b.Fatal(err)
		}
	}
}
