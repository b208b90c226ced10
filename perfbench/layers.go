package main

import (
	"time"

	"rottnest/internal/obs"
)

// perLayer computes the traced run's per-layer metrics, named after the
// repository's modules.
//
// Span-derived times come from the traced pass. Go-runtime figures
// (gc.*, alloc_kib_per_query) come from the plain pass of the same
// stream, since spans allocate. Store and cache counts are identical
// in both passes. Layers that only some workloads exercise (router,
// ingest, the in-situ scan of unindexed files) are reported as a share
// of the measured wall time, which is 0 where the layer does not run.
func perLayer(in *instance, plain, traced *phase, c obs.Snapshot) map[string]metric {
	q := float64(traced.queries)
	sp := traced.spans
	perQuery := func(d time.Duration) float64 { return us(d) / q }
	share := func(d time.Duration, of time.Duration) float64 {
		if of <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(of)
	}
	ratio := func(hit, miss int64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return float64(hit) / float64(hit+miss)
	}
	st := traced.store
	pages := c.Counter("search.pages_probed")
	pagesPerMatch := 0.0
	if traced.matches > 0 {
		pagesPerMatch = float64(pages) / float64(traced.matches)
	}
	// Shares are of the root spans' wall time: every traced query,
	// priming included, the same scope as the span sums.
	allWall := time.Duration(0)
	for _, st := range []string{"search", "router.search"} {
		allWall += sp.get(st).Wall
	}
	pn := float64(len(plain.walls))
	m := map[string]metric{
		"objectstore.gets":            {float64(st.gets) / q, "count"},
		"objectstore.lists":           {float64(st.lists) / q, "count"},
		"objectstore.puts":            {float64(st.puts) / q, "count"},
		"objectstore.busy_us":         {perQuery(st.busy), "us"},
		"cache.hit_ratio":             {ratio(c.Counter("cache.hits"), c.Counter("cache.misses")), "ratio"},
		"cache.evictions":             {float64(c.Counter("cache.evictions")), "count"},
		"cache.coalesced_gets":        {float64(c.Counter("cache.coalesced_gets")), "count"},
		"objcache.hit_ratio":          {ratio(c.Counter("objcache.hits"), c.Counter("objcache.misses")), "ratio"},
		"objcache.evictions":          {float64(c.Counter("objcache.evictions")), "count"},
		"search.plan.self_us":         {perQuery(sp.get("search.plan").Self), "us"},
		"search.plan_cache_hit_ratio": {ratio(c.Counter("search.plan_cache_hits"), c.Counter("search.plan_cache_misses")), "ratio"},
		"search.probe.self_us":        {perQuery(sp.get("search.probe").Self), "us"},
		"search.read.self_us":         {perQuery(sp.get("search.read").Self), "us"},
		"search.probe_memo_hit_ratio": {ratio(c.Counter("search.probe_coalesced"), c.Counter("search.probe_runs")), "ratio"},
		"index.probe.trie.us":         {perQuery(sp.get("index.probe.trie").Wall), "us"},
		"index.probe.fm.us":           {perQuery(sp.get("index.probe.fm").Wall), "us"},
		"index.probe.ivfpq.us":        {perQuery(sp.get("index.probe.ivfpq").Wall), "us"},
		"insitu.probe.us":             {perQuery(sp.get("insitu.probe").Wall), "us"},
		"insitu.pages_per_query":      {float64(pages) / q, "count"},
		"insitu.pages_per_match":      {pagesPerMatch, "count"},
		"insitu.scan.pct":             {share(sp.get("insitu.scan").Wall, allWall), "%"},
		"router.plan.pct":             {share(sp.get("router.plan").Wall, allWall), "%"},
		"router.scatter.pct":          {share(sp.get("router.scatter").Wall, allWall), "%"},
		"router.merge.pct":            {share(sp.get("router.merge").Wall, allWall), "%"},
		"setup.append_s":              {in.w.setup.append.Seconds(), "s"},
		"setup.index_s":               {in.w.setup.index.Seconds(), "s"},
		"setup.compact_s":             {in.w.setup.compact.Seconds(), "s"},
		"setup.vacuum_s":              {in.w.setup.vacuum.Seconds(), "s"},
		"gc.cycles_per_kquery":        {1000 * float64(plain.gcCycles) / pn, "count"},
		"gc.cpu_fraction":             {plain.gcCPU / plain.totCPU, "ratio"},
		"alloc_kib_per_query":         {float64(plain.allocB) / 1024 / pn, "KiB"},
		"trace.overhead_pct":          {100 * (us(percentile(sortedCopy(traced.walls), 0.5))/us(percentile(sortedCopy(plain.walls), 0.5)) - 1), "%"},
		"error_rate":                  {float64(traced.failed+plain.failed) / float64(traced.attempted+plain.attempted), "ratio"},
	}
	for k, v := range ingestLayers(in) {
		m[k] = v
	}
	return m
}

// ingestLayers reports the writer and scheduler of ingest-serve's
// measured rounds; every figure is 0 on the other workloads.
func ingestLayers(in *instance) map[string]metric {
	var flushPct, stepPct, putsPerCommit, perMiB float64
	var idx, cmp, vac, waits float64
	if g := in.ing; g != nil {
		total := g.flushWall + g.stepWall + g.queryWall
		flushPct = 100 * float64(g.flushWall) / float64(total)
		stepPct = 100 * float64(g.stepWall) / float64(total)
		jobs := g.sched.Registry().Snapshot().Sub(g.jobs0)
		commits := g.writer.Registry().Snapshot().Counter("ingest.group_commits") - g.commits0
		if commits > 0 {
			putsPerCommit = float64(g.flushPuts) / float64(commits)
		}
		if b, err := g.w.dataBytes(); err == nil && b > g.dataBytes0 {
			perMiB = float64(jobs.Counter("ingest.job_requests")) / (float64(b-g.dataBytes0) / (1 << 20))
		}
		idx = float64(jobs.Counter("ingest.jobs_index"))
		cmp = float64(jobs.Counter("ingest.jobs_compact"))
		vac = float64(jobs.Counter("ingest.jobs_vacuum"))
		waits = float64(jobs.Counter("ingest.budget_waits"))
	}
	return map[string]metric{
		"ingest.flush.pct":             {flushPct, "%"},
		"ingest.step.pct":              {stepPct, "%"},
		"ingest.puts_per_group_commit": {putsPerCommit, "count"},
		"ingest.jobs_index":            {idx, "count"},
		"ingest.jobs_compact":          {cmp, "count"},
		"ingest.jobs_vacuum":           {vac, "count"},
		"ingest.budget_waits":          {waits, "count"},
		"ingest.job_requests_per_mib":  {perMiB, "count"},
	}
}
