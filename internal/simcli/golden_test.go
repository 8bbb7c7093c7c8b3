package simcli

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fluxion/internal/grug"
	"fluxion/internal/sched"
	"fluxion/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run")

// goldenTrace is a seeded 60-job trace for the small preset (2 racks × 4
// nodes × 8 cores): the synthetic size mix, with arrivals staggered by
// 0–59 simulated seconds.
func goldenTrace() []trace.Job {
	jobs := trace.Synthesize(60, 8, 8, 35)
	rng := rand.New(rand.NewSource(35))
	at := int64(0)
	for i := range jobs {
		jobs[i].Submit = at
		at += rng.Int63n(60)
	}
	return jobs
}

// timelineRows keeps the job, submit, start, end, wait and state columns
// of a timeline's per-job rows.
func timelineRows(t *testing.T, out string) string {
	t.Helper()
	var b strings.Builder
	rows := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "job":
			rows = true
		case !rows:
		case len(f) != 7:
			rows = false
		default:
			fmt.Fprintf(&b, "%s %s %s %s %s %s\n", f[0], f[2], f[3], f[4], f[5], f[6])
		}
	}
	if b.Len() == 0 {
		t.Fatalf("no timeline rows in:\n%s", out)
	}
	return b.String()
}

// TestGoldenDecisions pins every job's decisions on the small preset
// under node faults, one file per run. A change that is not meant to move
// decisions must leave these files byte-identical; regenerate them with
// `make golden` only in a change that says up front that it moves them.
func TestGoldenDecisions(t *testing.T) {
	runs := []struct {
		name   string
		policy sched.QueuePolicy
		depth  int
	}{
		{"fcfs", sched.FCFS, 0},
		{"easy", sched.EASY, 0},
		{"conservative", sched.Conservative, 0},
		{"conservative-depth4", sched.Conservative, 4},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var out bytes.Buffer
			_, err := Run(Config{
				Recipe:      grug.Small(2, 4, 8, 32, 100),
				QueuePolicy: r.policy,
				QueueDepth:  r.depth,
				Timeline:    true,
				MTBF:        60000, MTTR: 600, FaultSeed: 42,
			}, goldenTrace(), &out)
			if err != nil {
				t.Fatal(err)
			}
			got := timelineRows(t, out.String())
			path := filepath.Join("testdata", "golden", r.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("decisions differ from %s:\n%s", path, lineDiff(string(want), got))
			}
		})
	}
}

// lineDiff lists the rows where two row dumps differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
		}
	}
	return b.String()
}
