package main

import (
	"context"
	"fmt"

	"rottnest/internal/core"
	"rottnest/internal/insitu"
	"rottnest/internal/lake"
	"rottnest/internal/obs"
	"rottnest/internal/shard"
)

// clientServer is one long-lived client with the default Config.
type clientServer struct{ c *core.Client }

func (s clientServer) search(ctx context.Context, o *op) ([]insitu.Match, error) {
	r, err := s.c.Search(ctx, o.query())
	if err != nil {
		return nil, err
	}
	return r.Matches, nil
}

func (s clientServer) trace(ctx context.Context, o *op) ([]insitu.Match, *obs.Node, error) {
	r, node, err := s.c.Trace(ctx, o.query())
	if err != nil {
		return nil, node, err
	}
	return r.Matches, node, nil
}

func (s clientServer) metrics() obs.Snapshot { return s.c.Metrics() }

// coldServer answers each query the way a one-shot searcher does: it
// opens the lake and builds a default client from the store alone, so
// no cache outlives the query.
type coldServer struct {
	w *world
	// acc sums the counters of every client built so far; it is kept
	// only when keep is set (traced phases).
	keep bool
	acc  obs.Snapshot
}

func (s *coldServer) open(ctx context.Context) (*core.Client, error) {
	t, err := lake.OpenWith(ctx, s.w.store, "lake", lake.OpenOptions{Clock: s.w.clock})
	if err != nil {
		return nil, fmt.Errorf("open lake: %w", err)
	}
	return core.NewClient(t, s.w.cfg), nil
}

func (s *coldServer) search(ctx context.Context, o *op) ([]insitu.Match, error) {
	c, err := s.open(ctx)
	if err != nil {
		return nil, err
	}
	m, err := clientServer{c}.search(ctx, o)
	if s.keep {
		s.acc = obs.Merge(s.acc, c.Metrics())
	}
	return m, err
}

func (s *coldServer) trace(ctx context.Context, o *op) ([]insitu.Match, *obs.Node, error) {
	c, err := s.open(ctx)
	if err != nil {
		return nil, nil, err
	}
	m, node, err := clientServer{c}.trace(ctx, o)
	if s.keep {
		s.acc = obs.Merge(s.acc, c.Metrics())
	}
	return m, node, err
}

func (s *coldServer) metrics() obs.Snapshot { return s.acc }

// routerServer is a default shard router over the world's lake.
type routerServer struct{ r *shard.Router }

func (s routerServer) search(ctx context.Context, o *op) ([]insitu.Match, error) {
	r, err := s.r.Search(ctx, o.query())
	if err != nil {
		return nil, err
	}
	return r.Matches, nil
}

func (s routerServer) trace(ctx context.Context, o *op) ([]insitu.Match, *obs.Node, error) {
	r, node, err := s.r.Trace(ctx, o.query())
	if err != nil {
		return nil, node, err
	}
	return r.Matches, node, nil
}

func (s routerServer) metrics() obs.Snapshot {
	snaps := []obs.Snapshot{s.r.Metrics()}
	for sh := 0; sh < s.r.Shards(); sh++ {
		for rep := 0; rep < s.r.Replicas(); rep++ {
			snaps = append(snaps, s.r.Client(sh, rep).Metrics())
		}
	}
	return obs.Merge(snaps...)
}
