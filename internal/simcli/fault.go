package simcli

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"fluxion/internal/chaos"
	"fluxion/internal/resgraph"
	"fluxion/internal/sched"
)

// injector drives per-node failure/repair events with exponentially
// distributed inter-arrival times. It is stateless by construction: every
// delay is a pure hash of (seed, node path, event time), so a scheduler
// resumed from a checkpoint — whose pending node events travel inside the
// scheduler checkpoint — replays the exact same fault timeline with a
// freshly attached injector. No RNG stream state exists to save.
type injector struct {
	s          *sched.Scheduler
	seed       int64
	mtbf, mttr int64 // mean seconds between failures / to repair
	// more reports whether the run still has work (queued arrivals or
	// unfinished jobs); failures stop being injected once it goes false
	// so the event loop terminates.
	more func() bool
	// downs/ups count injected events, for reporting only.
	downs, ups int
}

const (
	saltFail   = 0x6661696c // "fail"
	saltRepair = 0x72657072 // "repr"
)

// newInjector wires an injector into the scheduler's resource-event hook.
// Callers on a fresh run must also call start() to schedule each node's
// first failure; resumed runs must not (pending events were restored from
// the checkpoint).
func newInjector(s *sched.Scheduler, seed, mtbf, mttr int64) *injector {
	inj := &injector{s: s, seed: seed, mtbf: mtbf, mttr: mttr}
	s.SetResourceEventHook(inj.observe)
	return inj
}

// start schedules the initial failure for every node, in sorted path order
// for determinism.
func (inj *injector) start(g *resgraph.Graph) error {
	nodes := g.ByType("node")
	if len(nodes) == 0 {
		return fmt.Errorf("simcli: fault injection requires node vertices")
	}
	paths := make([]string, 0, len(nodes))
	for _, v := range nodes {
		paths = append(paths, v.Path())
	}
	sort.Strings(paths)
	for _, p := range paths {
		at := inj.s.Now() + inj.delay(p, inj.s.Now(), saltFail, inj.mtbf)
		if err := inj.s.ScheduleNodeDown(at, p); err != nil {
			return err
		}
	}
	return nil
}

// observe is the scheduler's resource-event hook: a failure schedules its
// repair, a repair schedules the node's next failure while work remains.
func (inj *injector) observe(at int64, path string, down bool) {
	if down {
		inj.downs++
		_ = inj.s.ScheduleNodeUp(at+inj.delay(path, at, saltRepair, inj.mttr), path)
		return
	}
	inj.ups++
	if inj.more != nil && !inj.more() {
		return
	}
	_ = inj.s.ScheduleNodeDown(at+inj.delay(path, at, saltFail, inj.mtbf), path)
}

// delay draws an exponential delay with the given mean, deterministically
// from (seed, path, at, salt). Delays are whole seconds, at least 1.
func (inj *injector) delay(path string, at int64, salt uint64, mean int64) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(path))
	x := chaos.Mix(uint64(inj.seed) ^ h.Sum64() ^ uint64(at)*0x9e3779b97f4a7c15 ^ salt)
	// 53 high bits → uniform u in (0, 1]; -mean·ln(u) is exponential.
	u := (float64(x>>11) + 1) / (1 << 53)
	d := int64(math.Round(-float64(mean) * math.Log(u)))
	if d < 1 {
		d = 1
	}
	return d
}
