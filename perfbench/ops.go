package main

import (
	"bytes"
	"math/rand"

	"rottnest/internal/core"
	"rottnest/internal/insitu"
	"rottnest/internal/workload"
)

type opKind uint8

const (
	opKey opKind = iota
	opText
	opVec
)

// op is one query of a stream together with its expected answer.
type op struct {
	kind    opKind
	key     [16]byte
	present bool
	pattern []byte
	want    int // opText: exact match count
	vec     []float32
	truth   []int // opVec: global rows of the exact top-K
}

func (o *op) query() core.Query {
	q := core.Query{K: topK, Snapshot: -1}
	switch o.kind {
	case opKey:
		q.Column, q.UUID = "id", &o.key
	case opText:
		q.Column, q.Substring = "body", o.pattern
	default:
		q.Column, q.Vector = "emb", o.vec
	}
	return q
}

// check reports whether matches answer o exactly and, for a vector
// query, its recall against exact kNN. A UUID lookup must return the
// planted row and nothing else (nothing at all for an absent key); a
// substring query must return exactly the rows the brute-force oracle
// counted, each containing the pattern; a vector query must return K
// rows, each a row of the dataset.
func (o *op) check(matches []insitu.Match, vecRow map[string]int) (bool, float64) {
	switch o.kind {
	case opKey:
		if !o.present {
			return len(matches) == 0, 0
		}
		return len(matches) == 1 && bytes.Equal(matches[0].Value, o.key[:]), 0
	case opText:
		if len(matches) != o.want {
			return false, 0
		}
		for _, m := range matches {
			if !bytes.Contains(m.Value, o.pattern) {
				return false, 0
			}
		}
		return true, 0
	default:
		got := make([]int, 0, len(matches))
		for _, m := range matches {
			row, ok := vecRow[string(m.Value)]
			if !ok {
				return false, 0
			}
			got = append(got, row)
		}
		return len(matches) == len(o.truth), workload.Recall(got, o.truth)
	}
}

// kindAt fixes the query mix by position, so every stream has exactly
// the same shares: of each ten queries, eight are UUID lookups (one of
// them for an absent key), one is a substring search and one a K=10
// vector search.
func kindAt(i int) (opKind, bool) {
	switch j := i % 10; {
	case j < 8:
		return opKey, j != 7
	case j == 8:
		return opText, true
	default:
		return opVec, true
	}
}

// picker draws ranks from a Zipf(1.1) distribution, or uniformly when
// zipf is nil.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newPicker(rng *rand.Rand, skewed bool, n int) picker {
	p := picker{rng: rng}
	if skewed && n > 1 {
		p.zipf = rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	}
	return p
}

func (p picker) pick(n int) int {
	if p.zipf == nil {
		return p.rng.Intn(n)
	}
	return int(p.zipf.Uint64()) % n
}

// opSource builds ops over the rows of chunks [0, visible).
type opSource struct {
	d    *dataset
	rng  *rand.Rand
	pick picker
	// perm scatters Zipf ranks over rows so hot keys are spread across
	// files rather than packed into the first one.
	perm []int
	// truth memoizes exact kNN by (query vector, visible rows).
	truth map[[2]int][]int
	n     int // ops drawn so far
}

func newOpSource(d *dataset, seed int64, skewed bool) *opSource {
	rng := rand.New(rand.NewSource(seed))
	return &opSource{d: d, rng: rng, pick: newPicker(rng, skewed, len(d.ids)),
		perm: rng.Perm(len(d.ids)), truth: make(map[[2]int][]int)}
}

// next draws one op over the visible chunks. newest restricts present
// keys and patterns to the last visible chunk.
func (s *opSource) next(visible int, newest bool) op {
	d := s.d
	rows := d.rowsIn(visible)
	kind, present := kindAt(s.n)
	s.n++
	switch kind {
	case opKey:
		if !present {
			return op{kind: opKey, key: d.absentIDs[s.rng.Intn(len(d.absentIDs))]}
		}
		var row int
		if newest {
			lo := d.starts[visible-1]
			row = lo + s.rng.Intn(rows-lo)
		} else {
			row = s.perm[s.pick.pick(len(s.perm))] % rows
		}
		return op{kind: opKey, key: d.ids[row], present: true}
	case opText:
		var p string
		switch c := s.rng.Intn(8); {
		case c == 0:
			p = d.absentText[s.rng.Intn(len(d.absentText))]
		case newest:
			needles := d.chunks[visible-1].needles
			p = needles[s.rng.Intn(len(needles))]
		default:
			ch := d.chunks[s.pick.pick(visible)]
			p = ch.needles[s.rng.Intn(len(ch.needles))]
		}
		return op{kind: opText, pattern: []byte(p), want: d.textWant(p, visible)}
	default:
		qi := s.pick.pick(len(d.vecQueries))
		truth, ok := s.truth[[2]int{qi, rows}]
		if !ok {
			truth = workload.ExactNearest(d.vecs[:rows], d.vecQueries[qi], topK)
			s.truth[[2]int{qi, rows}] = truth
		}
		return op{kind: opVec, vec: d.vecQueries[qi], truth: truth}
	}
}
