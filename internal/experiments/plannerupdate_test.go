package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"fluxion/internal/planner"
)

// e2Batch is how many spans one timed batch adds or removes; the pool is
// that much larger than the span count so a batch always fits.
const e2Batch = 64

// e2Target is one calendar of the E2 update series, a single Planner or a
// two-type Multi, behind the four operations the series times.
type e2Target struct {
	add    func(start, dur int64) (int64, error)
	remove func(id int64) error
	first  func(at, dur, request int64) (int64, error)
	fits   func(at, dur, request int64) bool
	points func() int
}

// staggered returns a Planner and a two-type Multi, each holding n long
// staggered one-unit spans: span i covers [10i, 10i+5n), so about n/2 of
// them overlap on the plateau and each covers about n scheduled points —
// the overlap an aggregate pruning filter or a conservative queue builds
// and E2's 128-unit pool cannot.
func staggered(b *testing.B, n int) map[string]e2Target {
	total := int64(n + e2Batch)
	p, err := planner.New(0, 1<<40, total, "core")
	if err != nil {
		b.Fatal(err)
	}
	// The Multi is a two-member filter (type IDs 0 and 1) driven the way
	// SDFU and the match kernel drive one: a multi-span is one span per
	// member, a fit test asks every member, and the earliest fit is the
	// reservation iterator from just before `at`. Both members see the same
	// add/remove sequence, so their span IDs stay in lockstep and one ID
	// names the pair.
	ids, units := []int32{0, 1}, make([]int64, 2)
	m, err := planner.NewMulti(0, 1<<40, map[int32]int64{0: total, 1: total})
	if err != nil {
		b.Fatal(err)
	}
	core, node := m.PlannerByID(0), m.PlannerByID(1)
	targets := map[string]e2Target{
		"Planner": {
			add:    func(s, d int64) (int64, error) { return p.AddSpan(s, d, 1) },
			remove: p.RemoveSpan,
			first:  p.AvailTimeFirst,
			fits:   p.CanFit,
			points: p.PointCount,
		},
		"Multi": {
			add: func(s, d int64) (int64, error) {
				id, err := core.AddSpan(s, d, 1)
				if err != nil {
					return id, err
				}
				_, err = node.AddSpan(s, d, 1)
				return id, err
			},
			remove: func(id int64) error {
				if err := core.RemoveSpan(id); err != nil {
					return err
				}
				return node.RemoveSpan(id)
			},
			first: func(at, d, r int64) (int64, error) {
				units[0], units[1] = r, r
				return m.AvailPointTimeAfter(at-1, d, ids, units)
			},
			fits:   func(at, d, r int64) bool { return core.CanFit(at, d, r) && node.CanFit(at, d, r) },
			points: core.PointCount,
		},
	}
	for _, tg := range targets {
		for i := 0; i < n; i++ {
			if _, err := tg.add(int64(10*i), int64(5*n)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return targets
}

// BenchmarkE2Updates is E2's update series: AddSpan, RemoveSpan,
// AvailTimeFirst and a long-window SatDuring (CanFit) against the number
// of long staggered spans held, for Planner and Multi. AvailTimeFirst asks
// for all but n/4 units over a span-long window, so every point on the
// rising ramp qualifies on its own capacity but fails the window, and the
// answer lies on the falling ramp. Run it with
//
//	go test -run NONE -bench E2Updates -benchtime 0.2s ./internal/experiments
func BenchmarkE2Updates(b *testing.B) {
	for _, n := range []int{16, 256, 1024, 4096, 16384} {
		targets := staggered(b, n)
		dur, total := int64(5*n), int64(n+e2Batch)
		for _, name := range []string{"Planner", "Multi"} {
			tg := targets[name]
			// batch times k calls of op: the span adds and removes
			// around it run with the timer stopped unless timed.
			batch := func(b *testing.B, timeAdd, timeRemove bool) {
				rng := rand.New(rand.NewSource(1))
				ids := make([]int64, e2Batch)
				for i := 0; i < b.N; i += e2Batch {
					k := min(e2Batch, b.N-i)
					if !timeAdd {
						b.StopTimer()
					}
					for j := range ids[:k] {
						var err error
						if ids[j], err = tg.add(rng.Int63n(int64(10*n)), dur); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					if !timeRemove {
						b.StopTimer()
					}
					for _, id := range ids[:k] {
						if err := tg.remove(id); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
			}
			b.Run(fmt.Sprintf("%s/spans-%d/AddSpan", name, n), func(b *testing.B) { batch(b, true, false) })
			b.Run(fmt.Sprintf("%s/spans-%d/RemoveSpan", name, n), func(b *testing.B) { batch(b, false, true) })
			b.Run(fmt.Sprintf("%s/spans-%d/AvailTimeFirst", name, n), func(b *testing.B) {
				b.ReportMetric(float64(tg.points()), "points")
				for i := 0; i < b.N; i++ {
					if _, err := tg.first(0, dur, total-int64(n/4)); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/spans-%d/SatDuring", name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(2))
				for i := 0; i < b.N; i++ {
					tg.fits(rng.Int63n(int64(10*n)), dur, 1)
				}
			})
		}
	}
}
