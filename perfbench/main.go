// Command perfbench is the repository's end-to-end benchmark. It
// builds one workload from a seed, drives it from one goroutine as a
// closed loop with one client, checks every answer against an oracle,
// and prints one JSON line of metrics.
//
//	go run . --workload warm-serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: wall-clock and CPU
// cost of the Go code beside the simulated object-store clock. With
// --trace 1 it runs the same stream twice, plain and traced, and
// reports per-layer metrics folded from the span trees the program
// already returns, plus the tracing overhead; the spans and counters
// are written to .bench_build/trace/<workload>-seed<seed>.json.
//
// Every maintenance step is an explicit call at a fixed point of the
// stream on the world's virtual clock: no scheduler daemon, no
// background committer, no real-time ticker. Clients use the default
// core.Config.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rottnest/internal/obs"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	small    bool   // tiny data and streams, for the package's own test
	outDir   string // where a traced run writes its spans ("" = nowhere)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "scales the operation counts; at this commit a run measures about this long")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.outDir, "out", ".bench_build/trace", "directory for a traced run's spans and counters")
	flag.Parse()
	if o.workload == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupRepeats is how many times a plain run builds its deployment;
// setup_s is the median.
const setupRepeats = 5

func run(o options) (*report, error) {
	seconds := o.seconds
	if o.trace {
		// The traced invocation runs the stream twice, plain and
		// traced; half-length streams keep it near one plain run.
		seconds = max(1, seconds/2)
	}
	p, err := newPlan(o.workload, o.seed, seconds, o.small)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return runTraced(o, p)
	}
	in, setup, err := p.setupMedian(setupRepeats, false)
	if err != nil {
		return nil, err
	}
	ph, err := p.drive(in, false)
	if err != nil {
		return nil, err
	}
	m, err := endToEnd(in, ph, setup)
	if err != nil {
		return nil, err
	}
	return newReport(ph, m), nil
}

// runTraced runs the stream plain and then traced, each on a fresh
// deployment, and reports the per-layer metrics.
func runTraced(o options, p *plan) (*report, error) {
	plainIn, _, err := p.setupMedian(1, false)
	if err != nil {
		return nil, err
	}
	plain, err := p.drive(plainIn, false)
	if err != nil {
		return nil, err
	}
	plainIn = nil
	in, _, err := p.setupMedian(1, true)
	if err != nil {
		return nil, err
	}
	before := in.srv.metrics()
	traced, err := p.drive(in, true)
	if err != nil {
		return nil, err
	}
	counters := in.srv.metrics().Sub(before)
	m := perLayer(in, plain, traced, counters)
	rep := newReport(traced, m)
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	rep.Correct = rep.Failed == 0
	if o.outDir == "" {
		return rep, nil
	}
	err = writeTrace(o.outDir, traceFile{
		Workload: o.workload, Seed: o.seed, Metrics: m,
		VirtualP99: ms(percentile(sortedCopy(traced.sims), 0.99)),
		Spans:      traced.spans.byName, Counters: fileCounters(counters, traced.store),
		Exemplars: traced.spans.exemplars,
	})
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return rep, nil
}

// fileCounters is what the trace file keeps of the clients' counters.
// Clients on one store chain share its request counters, so summed
// store.* figures double count; the meter's counts replace them.
func fileCounters(c obs.Snapshot, st storeCounts) map[string]int64 {
	out := map[string]int64{
		"meter.gets": st.gets, "meter.lists": st.lists, "meter.puts": st.puts, "meter.heads": st.heads,
		"meter.deletes": st.deletes, "meter.bytes_read": st.bytesRead, "meter.busy_ns": int64(st.busy),
	}
	for k, v := range c.Counters {
		if !strings.HasPrefix(k, "store.") {
			out[k] = v
		}
	}
	return out
}

func newReport(ph *phase, m map[string]metric) *report {
	return &report{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}
}

// endToEnd computes the metrics a user of the library sees.
//
// Wall-clock, CPU, allocation and heap figures cover the measured pass
// only. Simulated-clock and store figures (query_virtual_mean_ms, gets
// and KiB per query) cover every query the client served, priming
// included: on warm-serve the measured pass makes no store request at
// all, so these read as the client's amortised cost, and any request a
// change adds to every warm query still moves them.
//
// ingest_rows_per_s is rows made searchable per wall second of the
// calls that write and index them, and searchable_lag_p50_s the median
// simulated time from ack to coverage by every index. On ingest-serve
// they cover the measured rounds (Writer Append/Flush, scheduler Step,
// OnCovered lags); elsewhere the set-up's bulk load (lake Append and
// client Index on its serial timeline).
func endToEnd(in *instance, ph *phase, setup setupSummary) (map[string]metric, error) {
	segs := ph.segments()
	pct := func(p float64) func(segment) float64 {
		return func(s segment) float64 { return us(percentile(sortedCopy(s.walls), p)) }
	}
	perQuery := func(f func(segment) float64) func(segment) float64 {
		return func(s segment) float64 { return f(s) / float64(len(s.walls)) }
	}
	ratio, err := in.w.indexRatio()
	if err != nil {
		return nil, err
	}
	rowsPerSec, lag := setup.writeRate, lagP50(in.w.lags)
	if g := in.ing; g != nil {
		rowsPerSec, lag = float64(g.rows)/(g.flushWall+g.stepWall).Seconds(), lagP50(g.lags)
	}
	q := float64(ph.queries)
	return map[string]metric{
		"query_wall_p50_us":         {medianOver(segs, pct(0.50)), "us"},
		"query_wall_p99_us":         {medianOver(segs, pct(0.99)), "us"},
		"query_qps":                 {medianOver(segs, func(s segment) float64 { return 1 / mean(s.walls).Seconds() }), "1/s"},
		"query_cpu_us":              {medianOver(segs, perQuery(func(s segment) float64 { return us(s.cpu) })), "us"},
		"allocs_per_query":          {medianOver(segs, perQuery(func(s segment) float64 { return float64(s.mallocs) })), "count"},
		"peak_heap_mib":             {medianOver(segs, func(s segment) float64 { return float64(s.heapGoal) / (1 << 20) }), "MiB"},
		"query_virtual_mean_ms":     {ms(mean(ph.sims)), "sim_ms"},
		"gets_per_query":            {float64(ph.store.gets) / q, "count"},
		"read_kib_per_query":        {float64(ph.store.bytesRead) / 1024 / q, "KiB"},
		"recall_at_10":              {ph.recallSum / float64(ph.recalls), "ratio"},
		"index_bytes_per_data_byte": {ratio, "ratio"},
		"setup_s":                   {setup.total.Seconds(), "s"},
		"ingest_rows_per_s":         {rowsPerSec, "1/s"},
		"searchable_lag_p50_s":      {lag, "sim_s"},
	}, nil
}
