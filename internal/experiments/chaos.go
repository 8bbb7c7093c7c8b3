package experiments

// E9 — chaos/self-defense study: how the defended scheduler holds up as
// the fault intensity climbs. One synthetic trace is replayed through
// the full simulator at each intensity with every defense armed; the
// chaos plan poisons a growing fraction of the jobs (injected match
// panics, malformed specs) and slows a growing fraction of the honest
// ones. The headline property is that the survival rate of clean jobs
// stays at 1.0 across the whole sweep — quarantine absorbs the hostile
// jobs and the degradation ladder absorbs the latency pressure, while
// the degraded-cycle fraction and quarantine counts climb with the
// intensity.

import (
	"fmt"
	"io"
	"time"

	"fluxion/internal/chaos"
	"fluxion/internal/grug"
	"fluxion/internal/sched"
	"fluxion/internal/simcli"
	"fluxion/internal/trace"
)

// ChaosConfig parameterizes the E9 chaos sweep.
type ChaosConfig struct {
	Racks        int64 // system scale
	NodesPerRack int64
	Cores        int64
	Jobs         int   // trace length
	Seed         int64 // trace and chaos-plan seed
	// Intensities is the fault-intensity sweep. At intensity f each job
	// independently panics with probability f/2, submits a malformed
	// spec with probability f/2, and matches slowly with probability f.
	Intensities []float64
	// SlowDelay is how long a slow match stalls inside the kernel.
	SlowDelay time.Duration
	// CycleDeadline arms the cycle watchdog for every run; slow matches
	// push cycles past it and climb the degradation ladder.
	CycleDeadline time.Duration
}

// DefaultChaos sweeps intensity 0 → 0.5 on the small two-rack system.
func DefaultChaos() ChaosConfig {
	return ChaosConfig{
		Racks: 2, NodesPerRack: 4, Cores: 8,
		Jobs: 200, Seed: 23,
		Intensities:   []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5},
		SlowDelay:     400 * time.Microsecond,
		CycleDeadline: 250 * time.Microsecond,
	}
}

// ChaosResult is one intensity sample point.
type ChaosResult struct {
	Intensity float64
	// Clean is how many trace jobs the plan did not poison; Survived is
	// how many of those completed. The self-defense contract is
	// SurvivalRate == 1 at every intensity.
	Clean        int
	Survived     int
	SurvivalRate float64
	// Quarantined / InvalidRejects / OverloadRejects are the defense
	// counters: poisoned jobs absorbed without harming the clean ones.
	Quarantined     int64
	InvalidRejects  int64
	OverloadRejects int64
	// DegradedFrac is DegradedCycles/Cycles: how often the watchdog had
	// the ladder above normal.
	Cycles         int64
	DegradedCycles int64
	DegradedFrac   float64
	Wall           time.Duration
}

// RunChaos replays the trace once per intensity, defenses armed.
func RunChaos(cfg ChaosConfig) ([]ChaosResult, error) {
	jobs := trace.Synthesize(cfg.Jobs, cfg.NodesPerRack, cfg.Cores, cfg.Seed)
	// Stagger arrivals one second apart: the synthetic trace submits
	// everything at t=0, which would concentrate every slow match in a
	// single giant first cycle and show the watchdog exactly one late
	// cycle at any intensity. Spread out, each slow arrival pressures
	// its own cycle and the degraded fraction tracks the intensity.
	for i := range jobs {
		jobs[i].Submit = int64(i)
	}
	out := make([]ChaosResult, 0, len(cfg.Intensities))
	for _, intensity := range cfg.Intensities {
		plan := &chaos.Plan{
			Seed:          cfg.Seed,
			PanicFrac:     intensity / 2,
			SlowFrac:      intensity,
			SlowDelay:     cfg.SlowDelay,
			MalformedFrac: intensity / 2,
		}
		scfg := simcli.Config{
			Recipe:      grug.Small(cfg.Racks, cfg.NodesPerRack, cfg.Cores, 0, 0),
			QueuePolicy: sched.Conservative,
			Chaos:       plan,
			Defense:     &sched.DefenseConfig{CycleDeadline: cfg.CycleDeadline},
		}
		start := time.Now()
		res, err := simcli.Run(scfg, jobs, io.Discard)
		if err != nil {
			return nil, fmt.Errorf("chaos experiment at intensity %.2f: %w", intensity, err)
		}
		r := ChaosResult{Intensity: intensity, Wall: time.Since(start)}
		for _, j := range jobs {
			if plan.Poisoned(j.ID) {
				continue
			}
			r.Clean++
			if sj, ok := res.Scheduler.Job(j.ID); ok && sj.State == sched.StateCompleted {
				r.Survived++
			}
		}
		if r.Clean > 0 {
			r.SurvivalRate = float64(r.Survived) / float64(r.Clean)
		}
		ss := res.Scheduler.Stats()
		r.Quarantined = ss.Quarantined
		r.InvalidRejects = ss.InvalidSpecRejects
		r.OverloadRejects = ss.OverloadRejects
		r.Cycles = ss.Cycles
		r.DegradedCycles = ss.DegradedCycles
		if r.Cycles > 0 {
			r.DegradedFrac = float64(r.DegradedCycles) / float64(r.Cycles)
		}
		out = append(out, r)
	}
	return out, nil
}

// PrintChaos renders the E9 sweep as a table.
func PrintChaos(w io.Writer, results []ChaosResult, cfg ChaosConfig) {
	fmt.Fprintf(w, "Chaos sweep — %d jobs on %d nodes, all defenses armed (cycle deadline %v, slow match %v)\n",
		cfg.Jobs, cfg.Racks*cfg.NodesPerRack, cfg.CycleDeadline, cfg.SlowDelay)
	fmt.Fprintf(w, "%9s %6s %8s %8s %11s %8s %8s %9s %8s %10s\n",
		"intensity", "clean", "survived", "survival", "quarantined", "invalid", "overload",
		"degraded", "cycles", "wall")
	for _, r := range results {
		fmt.Fprintf(w, "%9.2f %6d %8d %8.3f %11d %8d %8d %9d %8d %10v\n",
			r.Intensity, r.Clean, r.Survived, r.SurvivalRate,
			r.Quarantined, r.InvalidRejects, r.OverloadRejects,
			r.DegradedCycles, r.Cycles, r.Wall.Round(time.Millisecond))
	}
}
