package repository_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

// benchRecords generates `days` days of synthetic telemetry at a fixed
// per-day job rate: every job carries subsPerJob subexpressions (the first a
// scan) drawn from a pool of `sigs` recurring signatures, so a small pool
// gives few groups with many occurrences each and a large one many light
// groups.
func benchRecords(days, jobsPerDay, subsPerJob, sigs int) []*repository.JobRecord {
	rng := rand.New(rand.NewSource(42))
	var out []*repository.JobRecord
	for d := 0; d < days; d++ {
		day := t0.AddDate(0, 0, d)
		for i := 0; i < jobsPerDay; i++ {
			submit := day.Add(time.Duration(rng.Intn(24*3600)) * time.Second)
			id := fmt.Sprintf("bench-%d-%d", d, i)
			j := &repository.JobRecord{
				JobID: id, Cluster: "bench", VC: fmt.Sprintf("vc%d", rng.Intn(4)),
				Pipeline: fmt.Sprintf("pipe%d", rng.Intn(12)),
				Submit:   submit, Start: submit, End: submit.Add(time.Hour),
			}
			for s := 0; s < subsPerJob; s++ {
				sub := repository.SubexprRecord{
					JobID: id, Op: "Filter", Parent: -1,
					Strict:        signature.Sig(fmt.Sprintf("strict-%d-%d", d, rng.Intn(500))),
					Recurring:     signature.Sig(fmt.Sprintf("rec-%d", rng.Intn(sigs))),
					InputDatasets: []string{fmt.Sprintf("ds%d", rng.Intn(30))},
					Rows:          int64(rng.Intn(10000)), Bytes: int64(rng.Intn(1 << 20)),
					Work:     rng.Float64() * 100,
					Eligible: signature.EligibleOK,
				}
				if s == 0 {
					sub.Op = "Scan"
				}
				j.Subexprs = append(j.Subexprs, sub)
			}
			out = append(out, j)
		}
	}
	return out
}

func benchRepo(recs []*repository.JobRecord) *repository.Repo {
	r := repository.New()
	for _, j := range recs {
		r.Add(j)
	}
	return r
}

// BenchmarkRepoGroupByRecurring measures windowed aggregation beside the
// linear-scan oracle at the shapes that matter: the window the system serves
// (a week out of a month, daily_cycle's job rate and signature count), a
// whole-history fold (the 10-month analyses), and a single whole-day window
// over a few heavy signatures at 1×/10×/100× history — the property that
// cost tracks the window, not the history.
func BenchmarkRepoGroupByRecurring(b *testing.B) {
	shapes := []struct {
		name                               string
		days, jobsPerDay, subsPerJob, sigs int
		windowDays                         int
	}{
		{"week-of-30d-300sigs", 30, 75, 4, 300, 7},
		{"all-of-60d-300sigs", 60, 300, 4, 300, 60},
		{"day-of-2d-25sigs", 2, 100, 3, 25, 1},
		{"day-of-20d-25sigs", 20, 100, 3, 25, 1},
		{"day-of-200d-25sigs", 200, 100, 3, 25, 1},
	}
	for _, sh := range shapes {
		repo := benchRepo(benchRecords(sh.days, sh.jobsPerDay, sh.subsPerJob, sh.sigs))
		from := t0.AddDate(0, 0, sh.days-sh.windowDays)
		to := t0.AddDate(0, 0, sh.days)
		b.Run("sharded/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				repo.GroupByRecurring(from, to)
			}
		})
		b.Run("naive/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				repo.NaiveGroupByRecurring(from, to)
			}
		})
	}
}

// BenchmarkRepoAdd measures ingesting one 4-subexpression record, the cost
// every job pays; the repository is restarted every 30 days of records so
// its size stays bounded.
func BenchmarkRepoAdd(b *testing.B) {
	recs := benchRecords(30, 75, 4, 300)
	b.ReportAllocs()
	b.ResetTimer()
	var repo *repository.Repo
	for n := 0; n < b.N; n++ {
		if n%len(recs) == 0 {
			repo = repository.New()
		}
		repo.Add(recs[n%len(recs)])
	}
}
