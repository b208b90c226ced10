package main

import (
	"bytes"
	"context"
	"fmt"

	"rottnest/internal/bruteforce"
	"rottnest/internal/component"
	"rottnest/internal/core"
	"rottnest/internal/lake"
	"rottnest/internal/objectstore"
	"rottnest/internal/parquet"
	"rottnest/internal/simtime"
	"rottnest/internal/workload"
)

// vecDim is the embedding width. 32 float32s keep the vector column
// near a quarter of the text column, so no single index dominates.
const vecDim = 32

// topK is the result bound of every query the benchmark issues.
const topK = 10

var schema = parquet.MustSchema(
	parquet.Column{Name: "id", Type: parquet.TypeFixedLenByteArray, TypeLen: 16},
	parquet.Column{Name: "body", Type: parquet.TypeByteArray},
	parquet.Column{Name: "emb", Type: parquet.TypeFixedLenByteArray, TypeLen: 4 * vecDim},
)

// specs are the three indexes every workload keeps: UUID trie, FM
// substring, IVF-PQ vectors.
var specs = []core.IndexSpec{
	{Column: "id", Kind: component.KindTrie},
	{Column: "body", Kind: component.KindFM},
	{Column: "emb", Kind: component.KindIVFPQ},
}

// chunk is a run of generated rows: one lake file in a bulk load, or
// one round of producer batches in ingest-serve.
type chunk struct {
	ids     [][16]byte
	docs    []string
	vecs    [][]float32
	needles []string // substrings planted in three documents each
	// parts are the chunk's rows as equal parquet batches, built
	// before the set-up clock starts: one per lake file in a bulk load,
	// one per producer in an ingest round.
	parts []*parquet.Batch
}

// split prebuilds the chunk's rows as n batches.
func (c *chunk) split(n int) {
	c.parts = c.parts[:0]
	for p := 0; p < n; p++ {
		lo, hi := p*len(c.ids)/n, (p+1)*len(c.ids)/n
		c.parts = append(c.parts, c.slice(lo, hi).batch())
	}
}

func (c chunk) batch() *parquet.Batch {
	b := parquet.NewBatch(schema)
	ids := make([][]byte, len(c.ids))
	docs := make([][]byte, len(c.docs))
	vecs := make([][]byte, len(c.vecs))
	for i := range c.ids {
		id := c.ids[i]
		ids[i] = id[:]
		docs[i] = []byte(c.docs[i])
		vecs[i] = workload.Float32sToBytes(c.vecs[i])
	}
	b.Cols[0] = parquet.ColumnValues{Bytes: ids}
	b.Cols[1] = parquet.ColumnValues{Bytes: docs}
	b.Cols[2] = parquet.ColumnValues{Bytes: vecs}
	return b
}

// slice returns rows [lo, hi) of the chunk (producer batches of one
// ingest round).
func (c chunk) slice(lo, hi int) chunk {
	return chunk{ids: c.ids[lo:hi], docs: c.docs[lo:hi], vecs: c.vecs[lo:hi]}
}

// generator draws chunks from the repository's seeded generators.
type generator struct {
	ids  *workload.UUIDGen
	text *workload.TextGen
	vecs *workload.VectorGen
	n    int
}

// shapeSeed fixes the text vocabulary and the vector mixture centres
// for every run. The run's seed picks the documents and vectors drawn
// from them (by skipping a seed-dependent prefix of the stream), so
// seeds change the data but not its statistics: index sizes and recall
// then vary little from seed to seed.
const shapeSeed = 1

func skipFor(seed int64) int { return int(uint64(seed)%997) * 8 }

// vectorGen returns the fixed mixture's stream after skip vectors.
func vectorGen(skip int) *workload.VectorGen {
	g := workload.NewVectorGen(workload.VectorConfig{Seed: shapeSeed, Dim: vecDim, Clusters: 64, Spread: 0.18})
	g.Batch(skip)
	return g
}

// queryStream is where query vectors start in the mixture's stream,
// past any rows a run draws, so no query coincides with a row.
const queryStream = 1 << 16

func newGenerator(seed int64) *generator {
	g := &generator{
		ids:  workload.NewUUIDGen(seed),
		text: workload.NewTextGen(workload.DefaultTextConfig(shapeSeed)),
		vecs: vectorGen(skipFor(seed)),
	}
	g.text.Docs(skipFor(seed))
	return g
}

// chunk generates n rows and plants two fresh needles in three
// documents each.
func (g *generator) chunk(n int) chunk {
	c := chunk{ids: g.ids.Batch(n), docs: g.text.Docs(n), vecs: g.vecs.Batch(n)}
	for j := 0; j < 2; j++ {
		needle := fmt.Sprintf("Zq%05dx%dJ", g.n, j)
		c.docs = workload.PlantNeedle(c.docs, needle, []int{j, j + n/3, j + 2*n/3})
		c.needles = append(c.needles, needle)
	}
	g.n++
	return c
}

// dataset is every row a workload will ever write, in commit order,
// plus the ground truth its queries are checked against. All of it is
// computed before the set-up clock starts.
type dataset struct {
	chunks []chunk
	// starts[i] is the global row index of chunks[i]'s first row.
	starts []int
	ids    [][16]byte
	vecs   [][]float32
	// vecRow maps an embedding's bytes to its global row index, so a
	// vector match can be scored against exact kNN.
	vecRow map[string]int
	// textCounts[pattern][i] is the number of rows of chunks[i] that
	// contain pattern, as counted by a brute-force scan.
	textCounts map[string][]int
	absentText []string
	absentIDs  [][16]byte
	vecQueries [][]float32
}

// newDataset generates chunks of the given sizes and computes the
// substring oracle with internal/bruteforce over an oracle lake.
func newDataset(seed int64, sizes []int) (*dataset, error) {
	g := newGenerator(seed)
	d := &dataset{vecRow: make(map[string]int)}
	for _, n := range sizes {
		c := g.chunk(n)
		d.starts = append(d.starts, len(d.ids))
		for i := range c.ids {
			d.vecRow[string(workload.Float32sToBytes(c.vecs[i]))] = len(d.ids)
			d.ids = append(d.ids, c.ids[i])
			d.vecs = append(d.vecs, c.vecs[i])
		}
		d.chunks = append(d.chunks, c)
	}
	present := make(map[[16]byte]bool, len(d.ids))
	for _, id := range d.ids {
		present[id] = true
	}
	absent := workload.NewUUIDGen(seed ^ 0x5eed)
	for len(d.absentIDs) < 256 {
		if id := absent.Next(); !present[id] {
			d.absentIDs = append(d.absentIDs, id)
		}
	}
	for i := 0; i < 8; i++ {
		d.absentText = append(d.absentText, fmt.Sprintf("Zq%05dxAbsentJ", i))
	}
	d.vecQueries = vectorGen(queryStream + skipFor(seed)).Queries(64)
	return d, d.countText()
}

// countText fills textCounts by scanning a plain copy of every chunk
// with the brute-force cluster, the repository's scan oracle.
func (d *dataset) countText() error {
	ctx := context.Background()
	clock := simtime.NewVirtualClock()
	table, err := lake.CreateWith(ctx, objectstore.NewMemStore(clock), "oracle", schema, lake.OpenOptions{Clock: clock})
	if err != nil {
		return fmt.Errorf("oracle lake: %w", err)
	}
	chunkOf := make(map[string]int)
	var patterns []string
	for i := range d.chunks {
		d.chunks[i].split(1)
		c := d.chunks[i]
		path, err := table.Append(ctx, c.parts[0], parquet.WriterOptions{})
		if err != nil {
			return fmt.Errorf("oracle append: %w", err)
		}
		chunkOf[path] = i
		patterns = append(patterns, c.needles...)
	}
	patterns = append(patterns, d.absentText...)
	contains := func(v []byte, p string) bool { return bytes.Contains(v, []byte(p)) }
	matches, _, err := bruteforce.NewCluster(table, bruteforce.ClusterConfig{}).Scan(ctx, -1, "body",
		func(v []byte) (bool, float64) {
			for _, p := range patterns {
				if contains(v, p) {
					return true, 0
				}
			}
			return false, 0
		})
	if err != nil {
		return fmt.Errorf("oracle scan: %w", err)
	}
	d.textCounts = make(map[string][]int, len(patterns))
	for _, p := range patterns {
		d.textCounts[p] = make([]int, len(d.chunks))
	}
	for _, m := range matches {
		for _, p := range patterns {
			if contains(m.Value, p) {
				d.textCounts[p][chunkOf[m.Path]]++
			}
		}
	}
	return nil
}

// textWant is the number of rows in chunks [0, visible) containing p.
func (d *dataset) textWant(p string, visible int) int {
	n := 0
	for _, c := range d.textCounts[p][:visible] {
		n += c
	}
	return n
}

// rowsIn is the number of rows in chunks [0, visible).
func (d *dataset) rowsIn(visible int) int {
	if visible >= len(d.chunks) {
		return len(d.ids)
	}
	return d.starts[visible]
}
