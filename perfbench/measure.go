package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"rottnest/internal/insitu"
	"rottnest/internal/obs"
	"rottnest/internal/simtime"
)

// server answers queries for one workload. trace runs the same query
// with a span tree attached.
type server interface {
	search(ctx context.Context, o *op) ([]insitu.Match, error)
	trace(ctx context.Context, o *op) ([]insitu.Match, *obs.Node, error)
	// metrics sums the search, cache and router counters of every
	// client the server has used so far.
	metrics() obs.Snapshot
}

// runtimeSample is one reading of the process meters.
type runtimeSample struct {
	cpu             time.Duration // user+sys
	mallocs, allocB uint64
	gcCycles        uint64
	gcCPU, totalCPU float64
	// heapGoal is the heap size at which the collector aims to finish
	// its next cycle: the peak the heap grows to between collections.
	// Sampling it is steadier than sampling the live heap, which saws
	// between collections.
	heapGoal uint64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/goal:bytes"},
}

func readRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeMetrics)
	return runtimeSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		gcCycles: uint64(ms.NumGC),
		gcCPU:    runtimeMetrics[0].Value.Float64(),
		totalCPU: runtimeMetrics[1].Value.Float64(),
		heapGoal: runtimeMetrics[2].Value.Uint64(),
	}
}

// phase accumulates one query stream's measurements. The priming pass
// feeds only the simulated-clock and store figures (sims, store) and
// the correctness counts; the measured pass feeds everything.
type phase struct {
	walls []time.Duration // measured queries, in order
	sims  []time.Duration // every query, priming included
	store storeCounts     // requests below the caches, every query

	// chunks holds the process meters of each measured chunk, in the
	// order of walls; cuts are the chunk counts at which segments end.
	chunks        []chunkStat
	cuts          []int
	allocB        uint64
	gcCycles      uint64
	gcCPU, totCPU float64

	attempted, failed int
	recallSum         float64
	recalls           int
	matches, queries  int // every query, priming included

	spans *spanAgg // traced phases only
}

// chunkStat is the process meters' reading over one measured chunk.
type chunkStat struct {
	queries  int
	cpu      time.Duration
	mallocs  uint64
	heapGoal uint64
}

// result is one query's outcome, held until its chunk is checked.
type result struct {
	matches []insitu.Match
	err     error
	wall    time.Duration
	sim     time.Duration
}

// chunkOps bounds how many queries run between two readings of the
// process meters; the readings and the answer checks happen outside
// the measured calls.
const chunkOps = 128

// run drives ops through srv from this goroutine, one at a time.
func (p *phase) run(srv server, w *world, ops []op, measured bool, vecRow map[string]int) {
	res := make([]result, chunkOps)
	for lo := 0; lo < len(ops); lo += chunkOps {
		batch := ops[lo:min(lo+chunkOps, len(ops))]
		st := w.store.counts()
		var before runtimeSample
		if measured {
			before = readRuntime()
		}
		for i := range batch {
			o := &batch[i]
			s := simtime.NewSession()
			ctx := simtime.With(context.Background(), s)
			t := time.Now()
			var node *obs.Node
			if p.spans != nil {
				res[i].matches, node, res[i].err = srv.trace(ctx, o)
			} else {
				res[i].matches, res[i].err = srv.search(ctx, o)
			}
			res[i].wall = time.Since(t)
			res[i].sim = s.Elapsed()
			if node != nil {
				p.spans.add(node)
			}
		}
		if measured {
			after := readRuntime()
			p.chunks = append(p.chunks, chunkStat{
				queries:  len(batch),
				cpu:      after.cpu - before.cpu,
				mallocs:  after.mallocs - before.mallocs,
				heapGoal: after.heapGoal,
			})
			p.allocB += after.allocB - before.allocB
			p.gcCycles += after.gcCycles - before.gcCycles
			p.gcCPU += after.gcCPU - before.gcCPU
			p.totCPU += after.totalCPU - before.totalCPU
		}
		p.store = p.store.add(w.store.counts().sub(st))
		for i := range batch {
			r := &res[i]
			p.attempted++
			p.queries++
			p.sims = append(p.sims, r.sim)
			if measured {
				p.walls = append(p.walls, r.wall)
			}
			ok := r.err == nil
			if ok {
				var recall float64
				ok, recall = batch[i].check(r.matches, vecRow)
				if batch[i].kind == opVec {
					p.recallSum += recall
					p.recalls++
				}
				p.matches += len(r.matches)
			}
			if !ok {
				if p.failed == 0 {
					fmt.Fprintf(os.Stderr, "perfbench: first wrong answer: query %+v: %d matches, err %v\n",
						batch[i].query(), len(r.matches), r.err)
				}
				p.failed++
			}
			*r = result{}
		}
	}
}

// segmentOps is the least number of measured queries a segment of
// ingest-serve holds: enough that its p99 has ten samples beyond it.
const segmentOps = 1000

// segment is a run of consecutive measured chunks.
type segment struct {
	walls    []time.Duration
	cpu      time.Duration
	mallocs  uint64
	heapGoal uint64
}

// cut ends the current segment after the chunks measured so far.
func (p *phase) cut() {
	if len(p.cuts) == 0 || p.cuts[len(p.cuts)-1] < len(p.chunks) {
		p.cuts = append(p.cuts, len(p.chunks))
	}
}

// cutRest ends the phase: chunks after the last cut join the last
// segment, or form the only one.
func (p *phase) cutRest() {
	if len(p.cuts) == 0 {
		p.cut()
		return
	}
	p.cuts[len(p.cuts)-1] = len(p.chunks)
}

// segments splits the measured pass at its cuts. The end-to-end wall,
// CPU, allocation and heap figures are medians over segments, so
// interference from outside the process that lasts less than a few
// segments moves one segment, not the reported figure.
func (p *phase) segments() []segment {
	var segs []segment
	lo, at := 0, 0
	for _, end := range p.cuts {
		var s segment
		n := 0
		for _, c := range p.chunks[lo:end] {
			n += c.queries
			s.cpu += c.cpu
			s.mallocs += c.mallocs
			s.heapGoal = max(s.heapGoal, c.heapGoal)
		}
		s.walls = p.walls[at : at+n]
		segs = append(segs, s)
		lo, at = end, at+n
	}
	return segs
}

// medianOver returns the median of f over the segments.
func medianOver(segs []segment, f func(s segment) float64) float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = f(s)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
