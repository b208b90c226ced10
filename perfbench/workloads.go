package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/ingest"
	"rottnest/internal/lake"
	"rottnest/internal/obs"
	"rottnest/internal/shard"
)

// sizes fixes how much data and how many operations a run has. Every
// count is derived from the seconds argument and the workload alone,
// never from a measurement, so runs at one seed do identical work.
type sizes struct {
	files, rows int // bulk-loaded files and rows per file
	// prime queries run unmeasured first; the measured pass then runs
	// the ops sequence passes times, one segment per pass.
	prime, ops, passes int

	// ingest-serve: rounds of producers appending roundRows rows in
	// total and roundOps queries; the first primeRounds are priming.
	rounds, primeRounds, roundRows, producers, roundOps int
	// tailIndexed and tailUnindexed are cold-lake's files after the
	// compacted base: each indexed one gets its own index entries.
	tailIndexed, tailUnindexed int
}

func sizesFor(name string, seconds int, small bool) sizes {
	sz := sizes{files: 16, rows: 256}
	if small {
		sz.files, sz.rows = 4, 64
	}
	switch name {
	case "warm-serve":
		sz.ops, sz.passes = 150*seconds, 8
	case "routed-serve":
		sz.ops, sz.passes = 100*seconds, 8
	case "cold-lake":
		sz.prime, sz.ops, sz.passes = 32, 100*seconds, 6
		sz.tailIndexed, sz.tailUnindexed = 2, 2
		if small {
			sz.tailIndexed, sz.tailUnindexed = 1, 1
		}
	case "ingest-serve":
		sz.files /= 2
		sz.primeRounds, sz.rounds = 3, 3+5*seconds
		sz.producers, sz.roundRows, sz.roundOps = 4, 96, 64
		if small {
			sz.roundRows = 64
		}
	}
	if small {
		sz.prime, sz.ops, sz.passes = min(sz.prime, 40), min(sz.ops, 60), min(sz.passes, 2)
		sz.rounds = min(sz.rounds, sz.primeRounds+3)
	}
	return sz
}

var workloadNames = []string{"warm-serve", "cold-lake", "ingest-serve", "routed-serve"}

// plan is a workload's inputs and oracle, made before any set-up.
type plan struct {
	name  string
	seed  int64
	sz    sizes
	d     *dataset
	prime []op
	ops   []op
	// ingest-serve, per round: queries on the newest round's rows, run
	// between the group commit and maintenance, and Zipf queries over
	// every acked row, run after maintenance.
	fresh, settled [][]op
}

func newPlan(name string, seed int64, seconds int, small bool) (*plan, error) {
	sz := sizesFor(name, seconds, small)
	var chunkRows []int
	for i := 0; i < sz.files+sz.tailIndexed+sz.tailUnindexed; i++ {
		chunkRows = append(chunkRows, sz.rows)
	}
	for i := 0; i < sz.rounds; i++ {
		chunkRows = append(chunkRows, sz.roundRows)
	}
	d, err := newDataset(seed, chunkRows)
	if err != nil {
		return nil, err
	}
	p := &plan{name: name, seed: seed, sz: sz, d: d}
	visible := len(d.chunks)
	switch name {
	case "warm-serve", "routed-serve":
		// A Zipf-drawn sequence that priming runs once and every
		// measured pass repeats, so every request the measured passes
		// make was primed: the caches absorb all store traffic.
		src := newOpSource(d, seed, true)
		for i := 0; i < sz.ops; i++ {
			p.ops = append(p.ops, src.next(visible, false))
		}
		p.prime = p.ops
	case "cold-lake":
		src := newOpSource(d, seed, false)
		for i := 0; i < sz.prime; i++ {
			p.prime = append(p.prime, src.next(visible, false))
		}
		for i := 0; i < sz.ops; i++ {
			p.ops = append(p.ops, src.next(visible, false))
		}
	case "ingest-serve":
		src := newOpSource(d, seed, true)
		for r := 0; r < sz.rounds; r++ {
			c := &d.chunks[sz.files+r]
			c.split(sz.producers)
			var fresh, settled []op
			for i := 0; i < sz.roundOps/2; i++ {
				fresh = append(fresh, src.next(sz.files+r+1, true))
				settled = append(settled, src.next(sz.files+r+1, false))
			}
			p.fresh = append(p.fresh, fresh)
			p.settled = append(p.settled, settled)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return p, nil
}

// instance is one built deployment of a plan.
type instance struct {
	w   *world
	srv server
	ing *ingester // ingest-serve only
}

// build is the set-up that setup_s times: every call into the program
// that creates the deployment, and nothing else.
func (p *plan) build(timed bool) (*instance, error) {
	w, err := newWorld(p.seed, timed)
	if err != nil {
		return nil, err
	}
	chunks := p.d.chunks
	in := &instance{w: w}
	switch p.name {
	case "warm-serve", "routed-serve":
		if err := w.bulkLoad(chunks); err != nil {
			return nil, err
		}
	case "cold-lake":
		base := p.sz.files
		if err := w.bulkLoad(chunks[:base]); err != nil {
			return nil, err
		}
		for i := base; i < len(chunks); i++ {
			if err := w.appendFile(chunks[i]); err != nil {
				return nil, err
			}
			if i < base+p.sz.tailIndexed {
				if err := w.indexAll(); err != nil {
					return nil, err
				}
			}
		}
	case "ingest-serve":
		if err := w.bulkLoad(chunks[:p.sz.files]); err != nil {
			return nil, err
		}
	}
	err = w.call(&w.setup.total, func(ctx context.Context) error {
		switch p.name {
		case "warm-serve":
			in.srv = clientServer{core.NewClient(w.table, w.cfg)}
		case "cold-lake":
			in.srv = &coldServer{w: w, keep: timed}
		case "routed-serve":
			r, err := shard.New(ctx, w.store, "lake", shard.Options{
				Shards: 2, Replicas: 1, IndexDir: indexDir, Clock: w.clock,
			})
			if err != nil {
				return err
			}
			in.srv = routerServer{r}
		case "ingest-serve":
			in.srv = clientServer{core.NewClient(w.table, w.cfg)}
			in.ing = newIngester(w, in.srv)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", p.name, err)
	}
	return in, nil
}

// drive runs the plan's query stream (and, for ingest-serve, its
// writes and maintenance) on in, from this goroutine.
func (p *plan) drive(in *instance, traced bool) (*phase, error) {
	ph := &phase{}
	if traced {
		ph.spans = newSpanAgg()
	}
	if in.ing == nil {
		ph.run(in.srv, in.w, p.prime, false, p.d.vecRow)
		runtime.GC()
		for i := 0; i < p.sz.passes; i++ {
			ph.run(in.srv, in.w, p.ops, true, p.d.vecRow)
			ph.cut()
		}
		return ph, nil
	}
	for r := range p.fresh {
		measured := r >= p.sz.primeRounds
		if err := in.ing.commit(p.d.chunks[p.sz.files+r], measured); err != nil {
			return nil, err
		}
		in.ing.queries(ph, p.fresh[r], measured, p.d.vecRow)
		if err := in.ing.maintain(measured); err != nil {
			return nil, err
		}
		in.ing.queries(ph, p.settled[r], measured, p.d.vecRow)
		if measured && len(ph.walls) >= segmentOps*(len(ph.cuts)+1) {
			ph.cut()
		}
	}
	ph.cutRest()
	failed, err := in.ing.durability(p.d.ids[p.d.starts[p.sz.files]:])
	if err != nil {
		return nil, err
	}
	ph.attempted += len(p.d.ids) - p.d.starts[p.sz.files]
	ph.failed += failed
	return ph, nil
}

// ingester drives ingest-serve. Each round: producers append and one
// Flush group-commits (a Manual writer, no background committer); the
// virtual clock advances clockStep; queries on the new rows run; the
// default scheduler steps until it waits for budget or has no job;
// then Zipf queries over every acked row run. The new-row queries go
// before maintenance because the default budget keeps up with this
// ingest rate: after the steps every file is indexed, and the lazy
// protocol's scan of unindexed files would never run.
type ingester struct {
	w      *world
	srv    server // the long-lived query client
	writer *ingest.Writer
	sched  *ingest.Scheduler
	lags   []time.Duration

	// Measured rounds only.
	rows                           int64
	flushWall, stepWall, queryWall time.Duration
	flushPuts                      int64
	commits0, dataBytes0           int64
	jobs0                          obs.Snapshot
}

// clockStep is the virtual time that passes between a round's group
// commit and its maintenance steps.
const clockStep = time.Second

func newIngester(w *world, srv server) *ingester {
	in := &ingester{w: w, srv: srv}
	in.writer = ingest.NewWriter(w.table, ingest.WriterOptions{Clock: w.clock, Manual: true})
	in.sched = ingest.NewScheduler(w.table, ingest.SchedulerOptions{
		Config:    w.cfg,
		Writer:    in.writer,
		Specs:     specs,
		Clock:     w.clock,
		OnCovered: func(_ string, _ int64, lag time.Duration) { in.lags = append(in.lags, lag) },
	})
	return in
}

// commit appends the chunk's producer batches, group-commits them
// with one Flush and lets clockStep pass.
func (in *ingester) commit(c chunk, measured bool) error {
	if measured && in.jobs0.Counters == nil {
		in.jobs0 = in.sched.Registry().Snapshot()
		in.commits0 = in.writer.Registry().Snapshot().Counter("ingest.group_commits")
		b, err := in.w.dataBytes()
		if err != nil {
			return err
		}
		in.dataBytes0 = b
	}
	puts := in.w.store.counts().puts
	var acks []*ingest.Ack
	wall, err := timedCall(in.w.clock, func(ctx context.Context) error {
		for _, b := range c.parts {
			a, err := in.writer.Append(ctx, b)
			if err != nil {
				return err
			}
			acks = append(acks, a)
		}
		return in.writer.Flush(ctx)
	})
	if err != nil {
		return fmt.Errorf("ingest round: %w", err)
	}
	for _, a := range acks {
		if a.Err() != nil {
			return fmt.Errorf("ingest ack: %w", a.Err())
		}
	}
	if measured {
		in.flushWall += wall
		in.flushPuts += in.w.store.counts().puts - puts
		in.rows += int64(len(c.ids))
	}
	in.w.clock.Advance(clockStep)
	return nil
}

// maintain steps the scheduler until it waits for budget or has no
// job.
func (in *ingester) maintain(measured bool) error {
	for {
		var worked bool
		wall, err := timedCall(in.w.clock, func(ctx context.Context) error {
			var err error
			worked, err = in.sched.Step(ctx)
			return err
		})
		if err != nil {
			return fmt.Errorf("scheduler step: %w", err)
		}
		if measured {
			in.stepWall += wall
		}
		if !worked {
			return nil
		}
	}
}

// queries runs one block of the round's queries. Each block starts
// from a collected heap rather than inheriting the garbage of the
// round's writes and index builds.
func (in *ingester) queries(ph *phase, ops []op, measured bool, vecRow map[string]int) {
	runtime.GC()
	t := time.Now()
	ph.run(in.srv, in.w, ops, measured, vecRow)
	if measured {
		in.queryWall += time.Since(t)
	}
}

// durability closes the writer, reopens the table and a fresh default
// client from the store alone, and looks up every key the writer
// acked. It returns the number of keys not found exactly once.
func (in *ingester) durability(keys [][16]byte) (int, error) {
	ctx := context.Background()
	if err := in.writer.Close(ctx); err != nil {
		return 0, fmt.Errorf("close writer: %w", err)
	}
	t, err := lake.OpenWith(ctx, in.w.store, "lake", lake.OpenOptions{Clock: in.w.clock})
	if err != nil {
		return 0, fmt.Errorf("reopen lake: %w", err)
	}
	c := core.NewClient(t, in.w.cfg)
	failed := 0
	for i := range keys {
		o := op{kind: opKey, key: keys[i], present: true}
		r, err := c.Search(ctx, o.query())
		if err == nil {
			if ok, _ := o.check(r.Matches, nil); ok {
				continue
			}
		}
		if failed == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: acked key %x not found once after reopen (err %v)\n", keys[i], err)
		}
		failed++
	}
	return failed, nil
}

// setupSummary holds medians over repeated set-ups.
type setupSummary struct {
	total time.Duration
	// writeRate is bulk-loaded rows per wall second of lake Append and
	// client Index calls.
	writeRate float64
}

// setupMedian builds the plan n times and returns the last instance
// with the median set-up time and write rate.
func (p *plan) setupMedian(n int, timed bool) (*instance, setupSummary, error) {
	var totals []time.Duration
	var rates []float64
	var in *instance
	for i := 0; i < n; i++ {
		in = nil
		runtime.GC()
		var err error
		in, err = p.build(timed)
		if err != nil {
			return nil, setupSummary{}, err
		}
		w := in.w
		totals = append(totals, w.setup.total)
		rates = append(rates, float64(w.rows)/(w.setup.append+w.setup.index).Seconds())
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	sort.Float64s(rates)
	return in, setupSummary{total: totals[n/2], writeRate: rates[n/2]}, nil
}
