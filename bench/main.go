// Command bench is the repo's decision-path benchmark: it generates a
// seeded job trace, replays it through the real scheduling drivers
// (sched.Scheduler, shard.Sharded, durable.Store) and reports what a
// site operator would ask for — jobs decided per second and cycle
// latency — plus a per-layer ledger from a traced replay. See README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "", "workload to run (see README.md); required unless -aa")
	seed := fs.Int64("seed", defaultSeed, "seed of the generated trace and fault schedule")
	seconds := fs.Float64("seconds", 10, "replay for at least this many seconds, and each of the run's traces at least once")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced replays; 1: per-layer metrics from a traced replay and layer probes")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	aa := fs.Bool("aa", false, "run every workload's end-to-end set twice and compare the two against the bounds in -benchmark-json")
	benchJSON := fs.String("benchmark-json", "../BENCHMARK.json", "BENCHMARK.json the -aa bounds are read from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	printMachine(out, tmp)
	if *aa {
		return runAA(workloads, *benchJSON, *seed, *seconds, tmp, out)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var res result
	switch *traced {
	case 0:
		res, err = endToEnd(w, *seed, *seconds, tmp, out)
	case 1:
		res, err = perLayer(w, *seed, tmp, out, *traceOut)
	default:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *traced)
	}
	if err != nil {
		return err
	}
	res.Metrics.printTable(out)
	return res.print(out)
}
