package main

import (
	"reflect"
	"testing"
)

// exact are the metrics a run derives from counts and the simulated
// clock alone. With the query loop single-threaded and file names drawn
// from the seed, they must repeat bit for bit; a difference means
// concurrency or unseeded randomness leaked into the measured stream.
var exact = map[string]bool{
	"gets_per_query": true, "read_kib_per_query": true,
	"query_virtual_mean_ms": true,
	"searchable_lag_p50_s":  true, "index_bytes_per_data_byte": true,
	"recall_at_10": true,

	"objectstore.gets": true, "objectstore.lists": true, "objectstore.puts": true,
	"cache.evictions": true, "objcache.evictions": true,
	"insitu.pages_per_query": true, "insitu.pages_per_match": true,
	"ingest.jobs_index": true, "ingest.jobs_compact": true, "ingest.jobs_vacuum": true,
	"ingest.budget_waits": true, "ingest.puts_per_group_commit": true,
	"ingest.job_requests_per_mib": true, "error_rate": true,
}

func exactOf(t *testing.T, o options) (map[string]float64, *report) {
	t.Helper()
	rep, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d of %d", o.workload, o.trace, rep.Correct, rep.Failed, rep.Attempted)
	}
	got := make(map[string]float64)
	for k, m := range rep.Metrics {
		if exact[k] {
			got[k] = m.Value
		}
	}
	return got, rep
}

func TestDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: trace, small: true}
			a, rep := exactOf(t, o)
			b, _ := exactOf(t, o)
			if len(a) == 0 {
				t.Fatalf("%s trace=%v: no exact metrics in %v", name, trace, rep.Metrics)
			}
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if a[k] != b[k] {
						t.Errorf("%s trace=%v: %s = %v then %v", name, trace, k, a[k], b[k])
					}
				}
			}
		}
	}
}
