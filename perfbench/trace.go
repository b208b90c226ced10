package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rottnest/internal/obs"
)

// spanStat sums one span name over a traced phase.
type spanStat struct {
	Count   int64         `json:"count"`
	Wall    time.Duration `json:"wall_ns"`
	Self    time.Duration `json:"self_ns"`
	Virtual time.Duration `json:"virtual_ns"`
}

// spanAgg folds the span trees that Client.Trace and Router.Trace
// return. index.probe spans are split by their kind attribute.
//
// Nodes carry durations but not start times, so the time a span's
// children cover is estimated: the sum of their durations when that
// fits inside the span (children that ran one after another), else the
// longest child (a parallel fan-out). Self time is the span's duration
// minus that cover.
type spanAgg struct {
	byName    map[string]*spanStat
	exemplars []*obs.Node
}

// keepExemplars is how many whole trees the trace file keeps.
const keepExemplars = 6

func newSpanAgg() *spanAgg { return &spanAgg{byName: make(map[string]*spanStat)} }

func (a *spanAgg) add(root *obs.Node) {
	a.walk(root)
	if len(a.exemplars) < keepExemplars {
		a.exemplars = append(a.exemplars, root)
	}
}

func (a *spanAgg) walk(n *obs.Node) {
	key := n.Name
	if kind, ok := n.Attrs["kind"].(string); ok && n.Name == "index.probe" {
		key += "." + kind
	}
	var sum, longest time.Duration
	for _, c := range n.Children {
		sum += c.Wall
		longest = max(longest, c.Wall)
		a.walk(c)
	}
	cover := sum
	if sum > n.Wall {
		cover = longest
	}
	st := a.byName[key]
	if st == nil {
		st = &spanStat{}
		a.byName[key] = st
	}
	st.Count++
	st.Wall += n.Wall
	st.Self += n.Wall - min(n.Wall, cover)
	st.Virtual += n.Virtual
}

func (a *spanAgg) get(name string) spanStat {
	if st := a.byName[name]; st != nil {
		return *st
	}
	return spanStat{}
}

// traceFile is what a traced run leaves behind for later inspection.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Metrics  map[string]metric `json:"per_layer"`
	// VirtualP99 is the traced pass's p99 simulated query latency in
	// milliseconds. It is not a metric because on warm-serve it is 0.
	VirtualP99 float64              `json:"query_virtual_p99_ms"`
	Spans      map[string]*spanStat `json:"spans"`
	Counters   map[string]int64     `json:"counters"`
	Exemplars  []*obs.Node          `json:"exemplar_trees"`
}

func writeTrace(dir string, f traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", f.Workload, f.Seed))
	return os.WriteFile(path, b, 0o644)
}
