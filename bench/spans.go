package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"
)

// Span kinds: one per call the driver makes into the sched/shard layer.
// A batch is the Atomic unit holding an arrival batch's submits and its
// Schedule; its self time is the command-unit overhead (journal commit).
type spanKind uint8

const (
	spanBatch spanKind = iota
	spanSubmit
	spanSchedule
	spanStep
	spanAdvance
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"batch", "submit", "schedule", "step", "advance"}

const noParent = int32(-1)

// span is one recorded call: times are nanoseconds since the replay
// started, parent indexes the enclosing span, cycle is the driver
// iteration every span of one decision shares.
type span struct {
	kind       spanKind
	parent     int32
	cycle      int32
	start, end int64
}

// recorder keeps spans in a slice allocated before the replay starts. A
// nil recorder records nothing, which is the untraced replay.
type recorder struct {
	base   time.Time
	spans  []span
	deltas int // resgraph deltas published during the replay
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(kind spanKind, parent, cycle int32) int32 {
	if r == nil {
		return noParent
	}
	r.spans = append(r.spans, span{kind: kind, parent: parent, cycle: cycle, start: int64(time.Since(r.base))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.base))
}

// durations returns every span duration of one kind, in nanoseconds.
func (r *recorder) durations(kind spanKind) []int64 {
	var out []int64
	for _, s := range r.spans {
		if s.kind == kind {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// ledger splits a traced replay's wall time by where it was spent.
type ledger struct {
	wall                                             time.Duration
	submit, schedule, step, advance, batchSelf, self time.Duration
}

// ledger sums span self times. Top-level spans (batch, step, advance)
// tile the replay except for the driver's own loop, so self is the wall
// time minus them and the rows add up to the wall exactly; what the
// tiling cannot see is time inside a layer, which is a later PR's spans.
func (r *recorder) ledger(wall time.Duration) ledger {
	var busy [numSpanKinds]int64
	for _, s := range r.spans {
		busy[s.kind] += s.end - s.start
	}
	l := ledger{
		wall:     wall,
		submit:   time.Duration(busy[spanSubmit]),
		schedule: time.Duration(busy[spanSchedule]),
		step:     time.Duration(busy[spanStep]),
		advance:  time.Duration(busy[spanAdvance]),
	}
	l.batchSelf = time.Duration(busy[spanBatch]) - l.submit - l.schedule
	l.self = wall - time.Duration(busy[spanBatch]+busy[spanStep]+busy[spanAdvance])
	return l
}

// coverage is the share of the wall spent inside recorded spans.
func (l ledger) coverage() float64 {
	return 1 - l.self.Seconds()/l.wall.Seconds()
}

// print writes the budget table of one workload.
func (l ledger) print(w io.Writer, layer string) {
	rows := []struct {
		name string
		d    time.Duration
	}{
		{layer + ".submit_busy_s", l.submit},
		{layer + ".schedule_busy_s", l.schedule},
		{layer + ".step_busy_s", l.step},
		{layer + ".advance_busy_s", l.advance},
		{layer + ".atomic_self_s", l.batchSelf},
		{"driver.self_s", l.self},
	}
	sum := time.Duration(0)
	fmt.Fprintf(w, "  %-26s %10s %7s\n", "ledger row", "seconds", "share")
	for _, row := range rows {
		sum += row.d
		fmt.Fprintf(w, "  %-26s %10.4f %6.1f%%\n", row.name, row.d.Seconds(), 100*row.d.Seconds()/l.wall.Seconds())
	}
	fmt.Fprintf(w, "  %-26s %10.4f %6.1f%%  (replay wall %.4f s, residual %.4f s)\n",
		"sum", sum.Seconds(), 100*sum.Seconds()/l.wall.Seconds(), l.wall.Seconds(), (l.wall - sum).Seconds())
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), which Perfetto and
// chrome://tracing open directly.
func (r *recorder) writeChromeTrace(path, layer string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":\"%s.%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"cycle\":%d}}",
			layer, spanNames[s.kind], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.cycle)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
