package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fluxion/internal/trace"
)

// The machine every workload schedules on: grug.Quartz(39, 62, 36).
const (
	quartzRacks        = 39
	quartzNodesPerRack = 62
	quartzCoresPerNode = 36
	quartzNodes        = quartzRacks * quartzNodesPerRack // 2418
)

// Trace shape (Fan, "Job Scheduling in HPC": heavy-tailed sizes,
// log-normal runtimes, Poisson arrivals).
const (
	sizeClasses   = 9    // k = 0..8
	sizeDecay     = 0.62 // P(k) ∝ sizeDecay^k
	runtimeMu     = 5.7  // runtime = exp(N(mu, sigma)) seconds
	runtimeSigma  = 1.0
	runtimeMin    = 30
	runtimeMax    = 7200
	streamLoad    = 3.0 // offered node-seconds ÷ machine node-seconds
	faultRepairS  = 600 // mean seconds a failed node stays down
	faultsPerJobs = 5   // one down/up pair per this many jobs
)

var sizeMultipliers = [4]float64{1, 1.25, 1.5, 1.75}

// fault is one pre-scheduled node outage. Node indexes the graph's node
// vertices in sorted-path order.
type fault struct {
	Node     int
	Down, Up int64
}

// input is everything one replay consumes, a pure function of (shape, n,
// seed).
type input struct {
	jobs   []trace.Job
	faults []fault
	sha256 string
}

// Two generators feed every draw. The skeleton — which size goes with
// which runtime stratum, in what order, which gap stratum separates them,
// which node fails — comes from a constant, so it is the same for every
// seed. The seed draws each value inside its stratum, shuffles arrival
// order within blocks of localShuffle jobs, and draws every repair time.
//
// The split exists because these traces are short: among a few hundred
// heavy-tailed jobs one 448-node two-hour job is worth more node-seconds
// than all the others together, so resampling where it lands moved
// jobs_per_s by ±40% between seeds (measured), which no regression bound
// survives. Seeds still give different traces and different decisions;
// they no longer give different machines' worth of work.
const (
	skeletonSeed = 1
	localShuffle = 8
)

// within returns a uniform draw from slice k of n equal slices of [0,1).
// Draw i of a call site uses slice skeleton.Perm(n)[i], so the n draws
// cover the distribution evenly whatever the seed.
func within(rng *rand.Rand, k, n int) float64 {
	return (float64(k) + rng.Float64()) / float64(n)
}

// jobSizes draws n node counts 2^k·{1,1.25,1.5,1.75} with P(k) ∝ 0.62^k.
func jobSizes(skeleton *rand.Rand, n int) []int64 {
	type class struct {
		nodes int64
		p     float64
	}
	var classes []class
	z := 0.0
	for k := 0; k < sizeClasses; k++ {
		z += math.Pow(sizeDecay, float64(k))
	}
	for k := 0; k < sizeClasses; k++ {
		for _, m := range sizeMultipliers {
			nodes := int64(float64(int64(1)<<k) * m)
			classes = append(classes, class{nodes, math.Pow(sizeDecay, float64(k)) / z / float64(len(sizeMultipliers))})
		}
	}
	out := make([]int64, n)
	for i, k := range skeleton.Perm(n) {
		u, acc := within(skeleton, k, n), 0.0
		out[i] = classes[len(classes)-1].nodes
		for _, c := range classes {
			if acc += c.p; u < acc {
				out[i] = c.nodes
				break
			}
		}
	}
	return out
}

// jobRuntimes draws n log-normal runtimes clipped to [30, 7200] seconds.
func jobRuntimes(skeleton, rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i, k := range skeleton.Perm(n) {
		z := math.Sqrt2 * math.Erfinv(2*within(rng, k, n)-1)
		d := math.Round(math.Exp(runtimeMu + runtimeSigma*z))
		out[i] = int64(math.Min(math.Max(d, runtimeMin), runtimeMax))
	}
	return out
}

// generate builds the trace of a workload. A snapshot submits everything
// at t=0; a stream spaces submits by exponential gaps whose mean offers
// streamLoad times the machine's capacity, so a backlog builds.
func generate(n int, seed int64, stream, withFaults bool) *input {
	skeleton, rng := rand.New(rand.NewSource(skeletonSeed)), rand.New(rand.NewSource(seed))
	sizes, runtimes := jobSizes(skeleton, n), jobRuntimes(skeleton, rng, n)
	jobs := make([]trace.Job, n)
	work := 0.0
	for i := range jobs {
		jobs[i] = trace.Job{Nodes: sizes[i], CoresPerNode: quartzCoresPerNode, Duration: runtimes[i]}
		work += float64(sizes[i] * runtimes[i])
	}
	for lo := 0; lo < n; lo += localShuffle {
		block := jobs[lo:min(lo+localShuffle, n)]
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	}
	in := &input{jobs: jobs}
	at := 0.0
	meanGap := work / float64(n) / (streamLoad * quartzNodes)
	gapStrata := skeleton.Perm(n)
	for i := range jobs {
		jobs[i].ID = int64(i + 1)
		if stream {
			jobs[i].Submit = int64(at)
			at += -meanGap * math.Log(1-within(rng, gapStrata[i], n))
		}
	}
	if stream && withFaults {
		// The backlog drains at the machine's rate, so the run lasts
		// about streamLoad × the arrival span; faults land inside it.
		in.faults = nodeFaults(skeleton, rng, n/faultsPerJobs, int64(at*streamLoad*0.85))
	}
	in.sha256 = in.digest()
	return in
}

// nodeFaults draws count outages with down times spread evenly over
// [0, span) and exponential repair times. A node is never failed again
// before its repair, so every scheduled event is valid.
func nodeFaults(skeleton, rng *rand.Rand, count int, span int64) []fault {
	out := make([]fault, count)
	for i := range out {
		out[i].Down = int64(within(rng, i, count) * float64(span))
	}
	busyUntil := make([]int64, quartzNodes)
	for i := range out {
		node := skeleton.Intn(quartzNodes)
		for busyUntil[node] > out[i].Down {
			node = (node + 1) % quartzNodes
		}
		repair := int64(math.Max(1, math.Round(-faultRepairS*math.Log(1-rng.Float64()))))
		out[i].Node, out[i].Up = node, out[i].Down+repair
		busyUntil[node] = out[i].Up + 1
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Down < out[b].Down })
	return out
}

// digest is the sha256 of the JSONL trace followed by the fault lines:
// two commits that print the same value replayed identical inputs.
func (in *input) digest() string {
	var buf bytes.Buffer
	if err := trace.Write(&buf, in.jobs); err != nil {
		panic(fmt.Sprintf("bench: generated an invalid trace: %v", err))
	}
	for _, f := range in.faults {
		fmt.Fprintf(&buf, "fault node=%d down=%d up=%d\n", f.Node, f.Down, f.Up)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
