// fluxion-bench regenerates every figure and table of the paper's
// evaluation (§6) as text tables:
//
//	fluxion-bench -experiment lod       # Fig. 6a  (LOD tradeoffs)
//	fluxion-bench -experiment planner   # Fig. 6b  (Planner scaling)
//	fluxion-bench -experiment classes   # Fig. 7a  (performance classes)
//	fluxion-bench -experiment varaware  # Fig. 7b, Table 1, Fig. 8
//	fluxion-bench -experiment parmatch  # parallel match pipeline sweep
//	fluxion-bench -experiment epochscale # lock-free epoch-snapshot match scaling
//	fluxion-bench -experiment recovery  # WAL crash-recovery time vs log length
//	fluxion-bench -experiment chaos     # self-defense survival vs fault intensity
//	fluxion-bench -experiment memscale  # resting-graph memory vs system scale
//	fluxion-bench -experiment shardscale # sharded scheduling throughput vs quality
//	fluxion-bench -experiment all       # everything
//
// Paper-scale defaults (56 racks / 1008 nodes for LOD, 1M spans for the
// planner, 2418-node quartz with 200 jobs for the case study) run in a few
// minutes; use -racks/-spans/-jobs to scale down.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever
// experiments ran, for drilling into a perf regression (see
// EXPERIMENTS.md, "Profiling a match regression").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"fluxion/internal/experiments"
	"fluxion/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "lod | planner | classes | varaware | parmatch | epochscale | recovery | chaos | memscale | shardscale | shardchaos | all")
		racks      = flag.Int64("racks", 56, "LOD system scale in racks (56 = the paper's 1008 nodes)")
		spans      = flag.String("spans", "1000,10000,100000,1000000", "planner pre-population sweep")
		queries    = flag.Int("queries", 4096, "planner queries per measurement")
		jobs       = flag.Int("jobs", 200, "trace length for the variation-aware study")
		nodes      = flag.Int64("quartz-nodes", 2418, "variation-aware system size (racks of 62)")
		seed       = flag.Int64("seed", 2023, "workload seed")
		workers    = flag.String("workers", "1,2,4,8", "parallel-match worker sweep")
		recJobs    = flag.Int("recovery-jobs", 512, "queue depth for the WAL recovery study")
		recPoints  = flag.Int("recovery-points", 8, "log-length sample points for the WAL recovery study")
		chaosJobs  = flag.Int("chaos-jobs", 200, "trace length for the chaos self-defense study")
		parOps     = flag.Int("parmatch-ops", 2048, "speculate+commit+cancel cycles per worker count")
		memRacks   = flag.String("memscale-racks", "7,70,703", "rack sweep for the resting-memory study (70 racks ~ 100k vertices)")
		shardJobs  = flag.Int("shardscale-jobs", 600, "queue-snapshot depth for the sharded-scheduling study")
		shardSweep = flag.String("shardscale-shards", "1,2,4,8", "shard-count sweep for the sharded-scheduling study")
		killJobs   = flag.Int("shardchaos-jobs", 400, "queue-snapshot depth for the shard-failover study")
		killSweep  = flag.String("shardchaos-kill", "0,0.125,0.25,0.375,0.5", "shard-kill intensity sweep (must start with the 0 control)")
		killSeed   = flag.Int64("shardchaos-seed", 1, "shard-kill schedule seed")
		epochOps   = flag.Int("epochscale-ops", 8192, "epoch speculations per worker count")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected experiments")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
			fmt.Printf("(wrote CPU profile to %s)\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fail(err)
			runtime.GC() // settle live heap so the profile shows retained, not transient, memory
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
			fmt.Printf("(wrote heap profile to %s)\n", *memProfile)
		}()
	}

	writeCSV := func(name string, fn func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		fail(err)
		fail(fn(f))
		fail(f.Close())
		fmt.Printf("(wrote %s)\n", filepath.Join(*csvDir, name))
	}

	run := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := false

	if run("lod") {
		ran = true
		start := time.Now()
		results, err := experiments.RunLOD(*racks)
		fail(err)
		experiments.PrintLOD(os.Stdout, results, *racks)
		writeCSV("lod.csv", func(w *os.File) error { return experiments.WriteLODCSV(w, results) })
		fmt.Printf("(lod experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("planner") {
		ran = true
		counts, err := parseInts(*spans)
		fail(err)
		start := time.Now()
		results, err := experiments.RunPlannerPerf(counts, *queries, *seed)
		fail(err)
		experiments.PrintPlannerPerf(os.Stdout, results)
		writeCSV("planner.csv", func(w *os.File) error { return experiments.WritePlannerCSV(w, results) })
		fmt.Printf("(planner experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("classes") && *experiment != "all" {
		// Standalone histogram; under "all" it prints with varaware.
		ran = true
		model := workload.GenerateVariation(int(*nodes), *seed)
		experiments.PrintClassHistogram(os.Stdout, model.ClassHistogram())
		fmt.Println()
	}
	if run("varaware") {
		ran = true
		cfg := experiments.DefaultVarAware()
		cfg.Jobs = *jobs
		cfg.Seed = *seed
		cfg.Racks = (*nodes + cfg.NodesPerRack - 1) / cfg.NodesPerRack
		start := time.Now()
		hist, runs, err := experiments.RunVarAware(cfg)
		fail(err)
		experiments.PrintClassHistogram(os.Stdout, hist)
		fmt.Println()
		experiments.PrintVarAware(os.Stdout, runs)
		writeCSV("classes.csv", func(w *os.File) error { return experiments.WriteClassCSV(w, hist) })
		writeCSV("varaware.csv", func(w *os.File) error { return experiments.WriteVarAwareCSV(w, runs) })
		writeCSV("varaware_perjob.csv", func(w *os.File) error { return experiments.WritePerJobCSV(w, runs) })
		fmt.Printf("(varaware experiment wall time: %v)\n", time.Since(start).Round(time.Second))
	}
	if run("parmatch") {
		ran = true
		sweep, err := parseInts(*workers)
		fail(err)
		start := time.Now()
		results, err := experiments.RunParMatch(*racks, sweep, *parOps)
		fail(err)
		experiments.PrintParMatch(os.Stdout, results, *racks)
		writeCSV("parmatch.csv", func(w *os.File) error { return experiments.WriteParMatchCSV(w, results) })
		fmt.Printf("(parmatch experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("epochscale") {
		ran = true
		sweep, err := parseInts(*workers)
		fail(err)
		start := time.Now()
		results, err := experiments.RunEpochScale(*racks, sweep, *epochOps)
		fail(err)
		experiments.PrintEpochScale(os.Stdout, results, *racks)
		writeCSV("epochscale.csv", func(w *os.File) error { return experiments.WriteEpochScaleCSV(w, results) })
		fmt.Printf("(epochscale experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("recovery") {
		ran = true
		cfg := experiments.DefaultRecovery()
		cfg.Jobs = *recJobs
		cfg.Points = *recPoints
		start := time.Now()
		results, err := experiments.RunRecovery(cfg)
		fail(err)
		experiments.PrintRecovery(os.Stdout, results, cfg)
		writeCSV("recovery.csv", func(w *os.File) error { return experiments.WriteRecoveryCSV(w, results) })
		fmt.Printf("(recovery experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("chaos") {
		ran = true
		cfg := experiments.DefaultChaos()
		cfg.Jobs = *chaosJobs
		start := time.Now()
		results, err := experiments.RunChaos(cfg)
		fail(err)
		experiments.PrintChaos(os.Stdout, results, cfg)
		writeCSV("chaos.csv", func(w *os.File) error { return experiments.WriteChaosCSV(w, results) })
		fmt.Printf("(chaos experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("memscale") {
		ran = true
		sweep, err := parseInts(*memRacks)
		fail(err)
		rackSweep := make([]int64, len(sweep))
		for i, n := range sweep {
			rackSweep[i] = int64(n)
		}
		start := time.Now()
		results, err := experiments.RunMemScale(rackSweep)
		fail(err)
		experiments.PrintMemScale(os.Stdout, results)
		writeCSV("memscale.csv", func(w *os.File) error { return experiments.WriteMemScaleCSV(w, results) })
		fmt.Printf("(memscale experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("shardchaos") {
		ran = true
		sweep, err := parseFloats(*killSweep)
		fail(err)
		cfg := experiments.DefaultShardChaos()
		cfg.Jobs = *killJobs
		cfg.Seed = *seed
		cfg.ChaosSeed = *killSeed
		cfg.Intensities = sweep
		start := time.Now()
		results, err := experiments.RunShardChaos(cfg)
		fail(err)
		experiments.PrintShardChaos(os.Stdout, results, cfg)
		writeCSV("shardchaos.csv", func(w *os.File) error { return experiments.WriteShardChaosCSV(w, results) })
		fmt.Printf("(shardchaos experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("shardscale") {
		ran = true
		sweep, err := parseInts(*shardSweep)
		fail(err)
		cfg := experiments.DefaultShardScale()
		cfg.Jobs = *shardJobs
		cfg.Seed = *seed
		cfg.Shards = sweep
		start := time.Now()
		results, err := experiments.RunShardScale(cfg)
		fail(err)
		experiments.PrintShardScale(os.Stdout, results, cfg)
		writeCSV("shardscale.csv", func(w *os.File) error { return experiments.WriteShardScaleCSV(w, results) })
		fmt.Printf("(shardscale experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want lod, planner, classes, varaware, parmatch, epochscale, recovery, chaos, memscale, shardscale, shardchaos, or all)\n", *experiment)
		os.Exit(2)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad intensity %q: %w", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad span count %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluxion-bench:", err)
		os.Exit(1)
	}
}
