package main

import (
	"context"
	cryptorand "crypto/rand"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
)

// seededNames replaces crypto/rand.Reader for the benchmark process.
// The program names data and index files with crypto/rand, and the
// lake lists files in path order, so names decide the order index
// builds see rows in (IVF-PQ training) and how compaction bins them.
// Drawing them from a stream seeded per world makes that layout, and
// with it every request count and simulated latency, repeat exactly
// for a seed.
type seededNames struct {
	mu  sync.Mutex
	rng *rand.Rand
}

var names = &seededNames{rng: rand.New(rand.NewSource(1))}

func init() { cryptorand.Reader = names }

func (s *seededNames) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Read(p)
}

func (s *seededNames) reset(seed int64) {
	s.mu.Lock()
	s.rng = rand.New(rand.NewSource(seed))
	s.mu.Unlock()
}

// meterStore sits directly above the instrumented (latency-charging)
// store, below every cache, and counts each request that reaches the
// simulated bucket. When timed it also sums the wall time spent inside
// those calls.
type meterStore struct {
	inner objectstore.Store
	timed bool

	gets, lists, puts, heads, deletes, bytesRead, busy atomic.Int64
}

// storeCounts is a snapshot of a meterStore's counters.
type storeCounts struct {
	gets, lists, puts, heads, deletes, bytesRead int64
	busy                                         time.Duration
}

func (m *meterStore) Inner() objectstore.Store { return m.inner }

func (m *meterStore) counts() storeCounts {
	return storeCounts{
		gets: m.gets.Load(), lists: m.lists.Load(), puts: m.puts.Load(),
		heads: m.heads.Load(), deletes: m.deletes.Load(), bytesRead: m.bytesRead.Load(),
		busy: time.Duration(m.busy.Load()),
	}
}

func (c storeCounts) sub(o storeCounts) storeCounts {
	return storeCounts{
		gets: c.gets - o.gets, lists: c.lists - o.lists, puts: c.puts - o.puts,
		heads: c.heads - o.heads, deletes: c.deletes - o.deletes,
		bytesRead: c.bytesRead - o.bytesRead, busy: c.busy - o.busy,
	}
}

func (c storeCounts) add(o storeCounts) storeCounts {
	return storeCounts{
		gets: c.gets + o.gets, lists: c.lists + o.lists, puts: c.puts + o.puts,
		heads: c.heads + o.heads, deletes: c.deletes + o.deletes,
		bytesRead: c.bytesRead + o.bytesRead, busy: c.busy + o.busy,
	}
}

func (m *meterStore) start() time.Time {
	if !m.timed {
		return time.Time{}
	}
	return time.Now()
}

func (m *meterStore) done(t time.Time) {
	if m.timed {
		m.busy.Add(int64(time.Since(t)))
	}
}

func (m *meterStore) Put(ctx context.Context, key string, data []byte) error {
	t := m.start()
	defer m.done(t)
	m.puts.Add(1)
	return m.inner.Put(ctx, key, data)
}

func (m *meterStore) PutIfAbsent(ctx context.Context, key string, data []byte) error {
	t := m.start()
	defer m.done(t)
	m.puts.Add(1)
	return m.inner.PutIfAbsent(ctx, key, data)
}

func (m *meterStore) Get(ctx context.Context, key string) ([]byte, error) {
	t := m.start()
	defer m.done(t)
	m.gets.Add(1)
	b, err := m.inner.Get(ctx, key)
	m.bytesRead.Add(int64(len(b)))
	return b, err
}

func (m *meterStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	t := m.start()
	defer m.done(t)
	m.gets.Add(1)
	b, err := m.inner.GetRange(ctx, key, offset, length)
	m.bytesRead.Add(int64(len(b)))
	return b, err
}

func (m *meterStore) Head(ctx context.Context, key string) (objectstore.ObjectInfo, error) {
	t := m.start()
	defer m.done(t)
	m.heads.Add(1)
	return m.inner.Head(ctx, key)
}

func (m *meterStore) List(ctx context.Context, prefix string) ([]objectstore.ObjectInfo, error) {
	t := m.start()
	defer m.done(t)
	m.lists.Add(1)
	return m.inner.List(ctx, prefix)
}

func (m *meterStore) Delete(ctx context.Context, key string) error {
	t := m.start()
	defer m.done(t)
	m.deletes.Add(1)
	return m.inner.Delete(ctx, key)
}

// indexDir is where every client keeps its index, a deployment
// setting rather than a tuning knob.
const indexDir = "rottnest"

// setupStats times the calls a set-up makes into the program.
type setupStats struct {
	total, append, index, compact, vacuum time.Duration
}

// world is one simulated deployment: a virtual clock, an in-memory
// bucket charged at the paper's S3 latencies, the meter, and a lake
// table built by a maintenance client. Each call the set-up makes runs
// in its own simtime session whose elapsed time then advances the
// world clock, so the build has a serial timeline on which searchable
// lag is measured.
type world struct {
	clock *simtime.VirtualClock
	store *meterStore
	table *lake.Table
	maint *core.Client
	cfg   core.Config

	setup   setupStats
	ackedAt map[string]time.Time
	covers  map[string]int
	lags    []time.Duration
	rows    int64
}

func newWorld(seed int64, timed bool) (*world, error) {
	names.reset(seed)
	clock := simtime.NewVirtualClock()
	model := objectstore.DefaultS3Model()
	base := objectstore.NewStack(objectstore.NewMemStore(clock), objectstore.StackOptions{
		Latency:    &model,
		CacheBytes: -1,
	})
	w := &world{
		clock:   clock,
		store:   &meterStore{inner: base.Store, timed: timed},
		cfg:     core.Config{IndexDir: indexDir, Clock: clock},
		ackedAt: make(map[string]time.Time),
		covers:  make(map[string]int),
	}
	err := w.call(&w.setup.total, func(ctx context.Context) error {
		t, err := lake.CreateWith(ctx, w.store, "lake", schema, lake.OpenOptions{Clock: clock})
		w.table = t
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("create lake: %w", err)
	}
	w.maint = core.NewClient(w.table, w.cfg)
	return w, nil
}

// timedCall runs fn in a fresh simtime session, returns its wall time
// and advances the world clock by its simulated time.
func timedCall(clock *simtime.VirtualClock, fn func(context.Context) error) (time.Duration, error) {
	s := simtime.NewSession()
	t := time.Now()
	err := fn(simtime.With(context.Background(), s))
	d := time.Since(t)
	clock.Advance(s.Elapsed())
	return d, err
}

// call is a set-up step: timedCall, with the wall time added to *wall
// and to the set-up total.
func (w *world) call(wall *time.Duration, fn func(context.Context) error) error {
	d, err := timedCall(w.clock, fn)
	*wall += d
	if wall != &w.setup.total {
		w.setup.total += d
	}
	return err
}

// appendFile writes one chunk as one lake file.
func (w *world) appendFile(c chunk) error {
	var path string
	err := w.call(&w.setup.append, func(ctx context.Context) error {
		var err error
		path, err = w.table.Append(ctx, c.parts[0], parquet.WriterOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	w.ackedAt[path] = w.clock.Now()
	w.rows += int64(len(c.ids))
	return nil
}

// indexAll brings every spec's index up to date and records the lag of
// each file the new entries cover.
func (w *world) indexAll() error {
	for _, sp := range specs {
		var files []string
		err := w.call(&w.setup.index, func(ctx context.Context) error {
			e, err := w.maint.Index(ctx, sp.Column, sp.Kind)
			if e != nil {
				files = e.Files
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("index %s: %w", sp.Column, err)
		}
		for _, f := range files {
			if w.covers[f]++; w.covers[f] == len(specs) {
				w.lags = append(w.lags, w.clock.Now().Sub(w.ackedAt[f]))
			}
		}
	}
	return nil
}

func (w *world) compactAll() error {
	for _, sp := range specs {
		err := w.call(&w.setup.compact, func(ctx context.Context) error {
			_, err := w.maint.Compact(ctx, sp.Column, sp.Kind, core.CompactOptions{})
			return err
		})
		if err != nil {
			return fmt.Errorf("compact %s: %w", sp.Column, err)
		}
	}
	return nil
}

func (w *world) vacuum() error {
	err := w.call(&w.setup.vacuum, func(ctx context.Context) error {
		_, err := w.maint.Vacuum(ctx, core.VacuumOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("vacuum: %w", err)
	}
	return nil
}

// indexEvery is how many files a bulk load appends between index
// calls, so compaction has several entries per index to merge.
const indexEvery = 4

// bulkLoad appends chunks as files, indexing every indexEvery files,
// then compacts and vacuums: a compacted, fully indexed base.
func (w *world) bulkLoad(chunks []chunk) error {
	for i, c := range chunks {
		if err := w.appendFile(c); err != nil {
			return err
		}
		if (i+1)%indexEvery == 0 || i == len(chunks)-1 {
			if err := w.indexAll(); err != nil {
				return err
			}
		}
	}
	if err := w.compactAll(); err != nil {
		return err
	}
	return w.vacuum()
}

// dataBytes is the size of the latest snapshot's data files.
func (w *world) dataBytes() (int64, error) {
	snap, err := w.table.Snapshot(context.Background())
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range snap.Files {
		n += f.Size
	}
	return n, nil
}

// indexRatio is index bytes per data byte in the latest snapshot.
func (w *world) indexRatio() (float64, error) {
	data, err := w.dataBytes()
	if err != nil {
		return 0, err
	}
	entries, err := w.maint.Meta().List(context.Background())
	if err != nil {
		return 0, err
	}
	var index int64
	for _, e := range entries {
		index += e.SizeBytes
	}
	return float64(index) / float64(data), nil
}

// lagP50 is the median searchable lag in seconds of simulated time.
func lagP50(lags []time.Duration) float64 {
	return percentile(sortedCopy(lags), 0.5).Seconds()
}
