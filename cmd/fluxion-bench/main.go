// fluxion-bench regenerates every figure and table of the paper's
// evaluation (§6) as text tables:
//
//	fluxion-bench -experiment lod       # Fig. 6a  (LOD tradeoffs)
//	fluxion-bench -experiment planner   # Fig. 6b  (Planner scaling)
//	fluxion-bench -experiment classes   # Fig. 7a  (performance classes)
//	fluxion-bench -experiment varaware  # Fig. 7b, Table 1, Fig. 8
//	fluxion-bench -experiment all       # everything
//
// Recovery time, chaos survival, graph memory and shard scaling are
// measured by the bench module (bench/), CI steps and tests;
// EXPERIMENTS.md ("Retired sweeps") names which.
//
// Paper-scale defaults (56 racks / 1008 nodes for LOD, 1M spans for the
// planner, 2418-node quartz with 200 jobs for the case study) run in
// under a minute; use -racks/-spans/-jobs to scale down.
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
	"slices"
	"strconv"
	"strings"
	"time"

	"fluxion/internal/experiments"
	"fluxion/internal/workload"
)

// experimentNames are the values -experiment accepts.
var experimentNames = []string{"lod", "planner", "classes", "varaware", "all"}

func main() {
	var (
		experiment = flag.String("experiment", "all", strings.Join(experimentNames, " | "))
		racks      = flag.Int64("racks", 56, "LOD system scale in racks (56 = the paper's 1008 nodes)")
		spans      = flag.String("spans", "1000,10000,100000,1000000", "planner pre-population sweep")
		queries    = flag.Int("queries", 4096, "planner queries per measurement")
		jobs       = flag.Int("jobs", 200, "trace length for the variation-aware study")
		nodes      = flag.Int64("quartz-nodes", 2418, "variation-aware system size (racks of 62)")
		seed       = flag.Int64("seed", 2023, "workload seed")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected experiments")
	)
	flag.Parse()
	if !slices.Contains(experimentNames, *experiment) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *experiment, strings.Join(experimentNames, ", "))
		os.Exit(2)
	}

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

	if run("lod") {
		start := time.Now()
		results, err := experiments.RunLOD(*racks)
		fail(err)
		experiments.PrintLOD(os.Stdout, results, *racks)
		writeCSV("lod.csv", func(w *os.File) error { return experiments.WriteLODCSV(w, results) })
		fmt.Printf("(lod experiment wall time: %v)\n\n", time.Since(start).Round(time.Second))
	}
	if run("planner") {
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
		model := workload.GenerateVariation(int(*nodes), *seed)
		experiments.PrintClassHistogram(os.Stdout, model.ClassHistogram())
		fmt.Println()
	}
	if run("varaware") {
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
