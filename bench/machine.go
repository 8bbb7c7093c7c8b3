package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// The seed runs use when none is given, and the seed kept out of tuning:
// a later PR's claim must also hold on heldOutSeed.
const (
	defaultSeed = 20230101
	heldOutSeed = 77003
)

// scratchDir makes a directory for WAL files under the working
// directory, so the benchmark writes nowhere outside its checkout.
func scratchDir() (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// printMachine records the machine shape the numbers were taken on.
func printMachine(w io.Writer, tmp string) {
	fmt.Fprintf(w, "machine: GOMAXPROCS=%d nproc=%d cpu=%q %s %s/%s wal-fs=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(tmp))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
