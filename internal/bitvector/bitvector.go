// Package bitvector implements the bit-vector-filter application of the
// CloudViews mechanism (paper §5.6): during query execution a spool-like
// operator builds a Bloom filter over the join keys of a hash join's build
// side, and subsequent queries reuse it as a semi-join reducer that drops
// non-qualifying probe rows before the join — "a spool operator could be used
// for generating the bit-vector filter from [the] right child of hash join
// and reuse it in subsequent queries".
package bitvector

import (
	"fmt"
	"math"
	"sync"

	"cloudviews/internal/data"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
)

// Bloom is a classic Bloom filter over scalar values.
type Bloom struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // hash functions
	n    int64  // inserted values
}

// NewBloom sizes a filter for the expected element count and target false
// positive rate.
func NewBloom(expected int, fpr float64) *Bloom {
	if expected < 1 {
		expected = 1
	}
	if fpr <= 0 || fpr >= 1 {
		fpr = 0.01
	}
	mBits := uint64(math.Ceil(-float64(expected) * math.Log(fpr) / (math.Ln2 * math.Ln2)))
	if mBits < 64 {
		mBits = 64
	}
	k := int(math.Round(float64(mBits) / float64(expected) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Bloom{bits: make([]uint64, (mBits+63)/64), m: mBits, k: k}
}

func hash2(v data.Value) (uint64, uint64) {
	// FNV-1a on a kind-tagged rendering, then a splitmix to derive the
	// second hash for double hashing.
	h := data.FNV64a(data.FNV64a(data.FNVOffset, []byte{byte(v.Kind)}), v.String())
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return h, z ^ (z >> 31)
}

// Add inserts a value.
func (b *Bloom) Add(v data.Value) {
	h1, h2 := hash2(v)
	for i := 0; i < b.k; i++ {
		idx := (h1 + uint64(i)*h2) % b.m
		b.bits[idx/64] |= 1 << (idx % 64)
	}
	b.n++
}

// MaybeContains reports whether the value may have been inserted. False means
// definitely absent.
func (b *Bloom) MaybeContains(v data.Value) bool {
	h1, h2 := hash2(v)
	for i := 0; i < b.k; i++ {
		idx := (h1 + uint64(i)*h2) % b.m
		if b.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of inserted values.
func (b *Bloom) Count() int64 { return b.n }

// SizeBytes returns the filter's footprint — "bit-vector filters have a low
// storage and compute overhead".
func (b *Bloom) SizeBytes() int64 { return int64(len(b.bits) * 8) }

// EstimatedFPR estimates the achieved false-positive rate given the fill.
func (b *Bloom) EstimatedFPR() float64 {
	if b.n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(b.k)*float64(b.n)/float64(b.m)), float64(b.k))
}

// Key identifies a stored filter: the recurring signature of the subexpression
// whose output was filtered, plus the column the filter covers.
type Key struct {
	Recurring signature.Sig
	Column    string
}

// Store is the shared bit-vector filter store, the bitvector analogue of the
// materialized-view store.
type Store struct {
	mu      sync.RWMutex
	filters map[Key]*Bloom
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{filters: make(map[Key]*Bloom)} }

// BuildFromTable constructs and stores a filter over one column of a
// just-computed subexpression result (the spool hook).
func (s *Store) BuildFromTable(rec signature.Sig, t *data.Table, column string, fpr float64) (*Bloom, error) {
	idx := t.Schema.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("bitvector: column %q not in schema (%s)", column, t.Schema)
	}
	b := NewBloom(t.NumRows(), fpr)
	for _, row := range t.Rows {
		b.Add(row[idx])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.filters[Key{Recurring: rec, Column: column}] = b
	return b, nil
}

// Lookup fetches a stored filter.
func (s *Store) Lookup(rec signature.Sig, column string) (*Bloom, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.filters[Key{Recurring: rec, Column: column}]
	return b, ok
}

// Len returns the stored filter count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.filters)
}

// SemiJoinReduce applies a stored filter to the probe side of a join before
// the join executes: rows whose key cannot match the build side are dropped
// early. Returns the reduced table and how many rows were pruned.
func SemiJoinReduce(t *data.Table, keyExpr plan.Expr, b *Bloom) (*data.Table, int) {
	out := data.NewTable(t.Schema)
	pruned := 0
	ctx := &plan.EvalContext{Rand: data.NewRand(1)}
	for _, row := range t.Rows {
		if b.MaybeContains(keyExpr.Eval(row, ctx)) {
			out.Append(row)
		} else {
			pruned++
		}
	}
	return out, pruned
}
