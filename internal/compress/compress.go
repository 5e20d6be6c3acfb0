// Package compress implements the workload-compression application of
// signatures (paper §5.2: "compressing workloads into a representative set
// for pre-production evaluation"). Given the workload repository, it selects
// a small set of job templates that covers the distinct recurring
// subexpressions of the full workload, weighted by observed compute — so a
// pre-production run of the representative set exercises (almost) everything
// the production workload computes, at a fraction of the cost.
package compress

import (
	"sort"
	"time"

	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

// Representative is one selected job template.
type Representative struct {
	Template signature.Sig
	// ExampleJobID is a concrete job instance of the template.
	ExampleJobID string
	// NewSubexprs is how many previously uncovered subexpressions this
	// template contributed when selected (greedy marginal coverage).
	NewSubexprs int
	// Weight is the covered compute (container-seconds of subtree work).
	Weight float64
}

// Result is a compressed workload.
type Result struct {
	Representatives []Representative
	// CoveredSubexprs / TotalSubexprs count distinct recurring signatures.
	CoveredSubexprs int
	TotalSubexprs   int
	// CoveredWork / TotalWork weight the coverage by compute.
	CoveredWork float64
	TotalWork   float64
	// CompressionRatio is templates selected / templates total.
	CompressionRatio float64
}

// targetCoverage stops the selection once this fraction of weighted compute
// is covered.
const targetCoverage = 0.95

// Compress greedily picks templates maximizing marginal weighted coverage of
// distinct recurring subexpressions — classic weighted set cover, which is
// the right shape because template overlap is exactly what CloudViews
// measures.
func Compress(repo *repository.Repo, from, to time.Time) *Result {
	type tmplInfo struct {
		sig     signature.Sig
		example string
		covers  map[signature.Sig]float64 // subexpr -> weight
	}
	templates := make(map[signature.Sig]*tmplInfo)
	weight := make(map[signature.Sig]float64) // max observed subtree work per subexpr
	// JobsBetween returns records in insertion order (a documented contract
	// of the sharded repository), so the example job picked for each
	// template — its first occurrence — is deterministic.
	for _, j := range repo.JobsBetween(from, to) {
		ti, ok := templates[j.Template]
		if !ok {
			ti = &tmplInfo{sig: j.Template, example: j.JobID, covers: make(map[signature.Sig]float64)}
			templates[j.Template] = ti
		}
		for _, s := range j.Subexprs {
			if s.Op == "Output" {
				continue
			}
			if s.Work > weight[s.Recurring] {
				weight[s.Recurring] = s.Work
			}
			if s.Work > ti.covers[s.Recurring] {
				ti.covers[s.Recurring] = s.Work
			}
		}
	}

	res := &Result{TotalSubexprs: len(weight)}
	for _, w := range weight {
		res.TotalWork += w
	}
	if len(templates) == 0 {
		return res
	}

	// Greedy set cover over weighted subexpressions.
	ordered := make([]*tmplInfo, 0, len(templates))
	for _, ti := range templates {
		ordered = append(ordered, ti)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].sig < ordered[j].sig })

	covered := make(map[signature.Sig]bool)
	for {
		if res.TotalWork > 0 && res.CoveredWork/res.TotalWork >= targetCoverage {
			break
		}
		var best *tmplInfo
		var bestGain float64
		bestNew := 0
		for _, ti := range ordered {
			gain := 0.0
			n := 0
			for sig := range ti.covers {
				if !covered[sig] {
					gain += weight[sig]
					n++
				}
			}
			if gain > bestGain {
				best, bestGain, bestNew = ti, gain, n
			}
		}
		if best == nil || bestGain == 0 {
			break
		}
		for sig := range best.covers {
			covered[sig] = true
		}
		res.CoveredWork += bestGain
		res.CoveredSubexprs += bestNew
		res.Representatives = append(res.Representatives, Representative{
			Template:     best.sig,
			ExampleJobID: best.example,
			NewSubexprs:  bestNew,
			Weight:       bestGain,
		})
	}
	res.CompressionRatio = float64(len(res.Representatives)) / float64(len(templates))
	return res
}
