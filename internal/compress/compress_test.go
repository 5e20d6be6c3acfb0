package compress_test

import (
	"fmt"
	"testing"
	"time"

	"cloudviews/internal/compress"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// job adds an instance of a template covering the given subexpressions with
// weights.
func job(r *repository.Repo, id, template string, subs map[string]float64) {
	rec := &repository.JobRecord{
		JobID: id, Cluster: "c", VC: "vc", Pipeline: "p",
		Template: signature.Sig(template), Submit: t0, Start: t0, End: t0.Add(time.Minute),
	}
	for s, w := range subs {
		rec.Subexprs = append(rec.Subexprs, repository.SubexprRecord{
			JobID: id, Op: "Filter",
			Strict: signature.Sig(s + "-i"), Recurring: signature.Sig(s),
			Work: w, Parent: -1, Eligible: signature.EligibleOK,
		})
	}
	r.Add(rec)
}

func TestCompressGreedyCover(t *testing.T) {
	r := repository.New()
	// tmplA covers the two heaviest subexpressions; tmplB overlaps with A;
	// tmplC adds one unique light subexpression. Each carries more than 5% of
	// the work the others leave, so the 95% target needs all three.
	job(r, "a1", "tmplA", map[string]float64{"s1": 100, "s2": 80})
	job(r, "b1", "tmplB", map[string]float64{"s1": 100, "s3": 20})
	job(r, "c1", "tmplC", map[string]float64{"s4": 15})

	res := compress.Compress(r, t0, t0.AddDate(0, 0, 1))
	if len(res.Representatives) != 3 {
		t.Fatalf("representatives = %d, want all 3 for full coverage", len(res.Representatives))
	}
	if res.Representatives[0].Template != "tmplA" {
		t.Errorf("first pick = %s, want tmplA (heaviest marginal gain)", res.Representatives[0].Template)
	}
	if res.CoveredSubexprs != 4 || res.TotalSubexprs != 4 {
		t.Errorf("coverage counts: %d/%d", res.CoveredSubexprs, res.TotalSubexprs)
	}
	if res.CoveredWork != res.TotalWork {
		t.Errorf("work coverage: %g/%g", res.CoveredWork, res.TotalWork)
	}
}

func TestCompressTargetCoverageStopsEarly(t *testing.T) {
	r := repository.New()
	job(r, "a1", "tmplA", map[string]float64{"s1": 1000})
	job(r, "b1", "tmplB", map[string]float64{"s2": 10})
	job(r, "c1", "tmplC", map[string]float64{"s3": 10})
	res := compress.Compress(r, t0, t0.AddDate(0, 0, 1))
	if len(res.Representatives) != 1 {
		t.Errorf("representatives = %d, want 1 (s1 alone covers 98%%, past the 95%% target)", len(res.Representatives))
	}
	if res.CompressionRatio >= 0.5 {
		t.Errorf("ratio = %g", res.CompressionRatio)
	}
}

func TestCompressEmpty(t *testing.T) {
	r := repository.New()
	res := compress.Compress(r, t0, t0.AddDate(0, 0, 1))
	if len(res.Representatives) != 0 || res.TotalSubexprs != 0 {
		t.Errorf("empty repo produced %+v", res)
	}
}

func TestCompressRecurringInstancesCollapse(t *testing.T) {
	r := repository.New()
	// The same template daily: one representative suffices.
	for d := 0; d < 5; d++ {
		rec := &repository.JobRecord{
			JobID: fmt.Sprintf("d%d", d), Cluster: "c", VC: "vc", Pipeline: "p",
			Template: "tmpl", Submit: t0.AddDate(0, 0, d), Start: t0.AddDate(0, 0, d), End: t0.AddDate(0, 0, d),
			Subexprs: []repository.SubexprRecord{{
				JobID: fmt.Sprintf("d%d", d), Op: "Filter",
				Strict:    signature.Sig(fmt.Sprintf("inst-%d", d)), // new instance daily
				Recurring: "shared", Work: 50, Parent: -1, Eligible: signature.EligibleOK,
			}},
		}
		r.Add(rec)
	}
	res := compress.Compress(r, t0, t0.AddDate(0, 0, 10))
	if len(res.Representatives) != 1 {
		t.Errorf("representatives = %d, want 1 (recurrence collapses)", len(res.Representatives))
	}
}
