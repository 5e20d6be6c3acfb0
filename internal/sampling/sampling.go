// Package sampling implements the approximate-query application of the
// CloudViews mechanism (paper §5.6): sampled versions of materialized views
// answer aggregates at a fraction of the cost — "sampled views will
// particularly help reduce query latency and cost in queries where
// substantial work happens after the sampler" — together with simple
// statistics on common subexpressions for data scientists.
package sampling

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"cloudviews/internal/data"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// SampledView is a uniform sample of a materialized view.
type SampledView struct {
	Source  signature.Sig
	Percent float64
	Table   *data.Table
	// SourceRows is the logical row count of the full view (for scaling
	// estimates back up).
	SourceRows int64
	Mult       float64
}

// Store holds sampled views keyed by (source signature, percent).
type Store struct {
	mu      sync.RWMutex
	samples map[string]*SampledView
}

// NewStore creates an empty sample store.
func NewStore() *Store { return &Store{samples: make(map[string]*SampledView)} }

func key(sig signature.Sig, pct float64) string { return fmt.Sprintf("%s@%.4f", sig, pct) }

// SampleView draws a deterministic hash-based sample of a sealed view from
// the view store. The sample is itself a derived artifact created "as part of
// query processing".
func (s *Store) SampleView(views storage.Engine, sig signature.Sig, percent float64) (*SampledView, error) {
	if percent <= 0 || percent > 100 {
		return nil, fmt.Errorf("sampling: percent %g out of range", percent)
	}
	t, mult, ok := views.Fetch(sig)
	if !ok {
		return nil, fmt.Errorf("sampling: view %s unavailable", sig.Short())
	}
	out := data.NewTable(t.Schema)
	threshold := uint64(percent / 100 * float64(1<<32))
	for _, row := range t.Rows {
		h := data.FNVOffset
		for _, v := range row {
			h = data.FNV64a(h, v.String())
		}
		// Finalize: FNV avalanches poorly on short inputs, so mix before
		// thresholding to keep the sample unbiased.
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
		if (h>>32)%(1<<32) < threshold {
			out.Append(row)
		}
	}
	sv := &SampledView{
		Source:     sig,
		Percent:    percent,
		Table:      out,
		SourceRows: int64(float64(t.NumRows()) * mult),
		Mult:       mult,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples[key(sig, percent)] = sv
	return sv, nil
}

// Lookup fetches a previously drawn sample.
func (s *Store) Lookup(sig signature.Sig, percent float64) (*SampledView, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sv, ok := s.samples[key(sig, percent)]
	return sv, ok
}

// Estimate is an approximate aggregate with a rough 95% confidence
// half-width.
type Estimate struct {
	Value      float64
	HalfWidth  float64
	SampleSize int
}

// ApproxCount estimates the number of (logical) rows satisfying pred in the
// full view from the sample.
func (sv *SampledView) ApproxCount(pred func(data.Row) bool) Estimate {
	n := sv.Table.NumRows()
	hits := 0
	for _, row := range sv.Table.Rows {
		if pred(row) {
			hits++
		}
	}
	f := sv.Percent / 100
	scale := sv.Mult / f
	est := float64(hits) * scale
	// Binomial half-width, scaled.
	var hw float64
	if n > 0 {
		p := float64(hits) / float64(n)
		hw = 1.96 * math.Sqrt(p*(1-p)/float64(n)) * float64(n) * scale
	}
	return Estimate{Value: est, HalfWidth: hw, SampleSize: n}
}

// ApproxSum estimates the sum of a column over the full view.
func (sv *SampledView) ApproxSum(column string) (Estimate, error) {
	idx := sv.Table.Schema.ColumnIndex(column)
	if idx < 0 {
		return Estimate{}, fmt.Errorf("sampling: column %q not in schema", column)
	}
	var sum, sumSq float64
	for _, row := range sv.Table.Rows {
		v := row[idx].AsFloat()
		sum += v
		sumSq += v * v
	}
	n := float64(sv.Table.NumRows())
	f := sv.Percent / 100
	scale := sv.Mult / f
	est := sum * scale
	var hw float64
	if n > 1 {
		variance := (sumSq - sum*sum/n) / (n - 1)
		hw = 1.96 * math.Sqrt(variance*n) * scale
	}
	return Estimate{Value: est, HalfWidth: hw, SampleSize: int(n)}, nil
}

// ColumnStats summarizes one column of a subexpression result — the
// "statistics on the common subexpressions to provide insights to data
// scientists" use case.
type ColumnStats struct {
	Column   string
	Count    int
	Distinct int
	Min, Max data.Value
	Mean     float64 // numeric columns only
}

// Describe computes per-column statistics over a table.
func Describe(t *data.Table) []ColumnStats {
	out := make([]ColumnStats, len(t.Schema))
	for i, col := range t.Schema {
		st := ColumnStats{Column: col.Name, Min: data.Null(), Max: data.Null()}
		distinct := make(map[string]bool)
		var sum float64
		for _, row := range t.Rows {
			v := row[i]
			st.Count++
			distinct[v.String()] = true
			if st.Min.IsNull() || v.Compare(st.Min) < 0 {
				st.Min = v
			}
			if st.Max.IsNull() || v.Compare(st.Max) > 0 {
				st.Max = v
			}
			sum += v.AsFloat()
		}
		st.Distinct = len(distinct)
		if st.Count > 0 && (col.Kind == data.KindInt || col.Kind == data.KindFloat) {
			st.Mean = sum / float64(st.Count)
		}
		out[i] = st
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Column < out[j].Column })
	return out
}
