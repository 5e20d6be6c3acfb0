package repository_test

// Tests for the day-sharded repository: the pinned deterministic GroupStat
// ordering, the ownership rule (Add keeps the record it is handed, a stored
// record is never written, SetOutcome installs a successor), what an Add
// allocates, queries racing writers, and a seeded property test
// that every windowed query of the sharded store is identical to the naive
// fold over all history (oracle_test.go).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

// TestGroupStatPinnedOrdering verifies the documented deterministic order of
// the occurrences — submit time, then strict signature, then job ID —
// regardless of insertion order, and that VCs is sorted. Submits and
// SubmitStrict show the first two keys. Two occurrences tie on both, so the
// job-ID tiebreak shows only in the float sums, which run in the pinned
// order: their work values are chosen so that adding them in the other order
// changes AvgWork.
func TestGroupStatPinnedOrdering(t *testing.T) {
	r := repository.New()
	mk := func(id, vc string, submit time.Time, strict string, work float64) *repository.JobRecord {
		return &repository.JobRecord{
			JobID: id, Cluster: "c1", VC: vc, Pipeline: "p",
			Submit: submit,
			Subexprs: []repository.SubexprRecord{
				{JobID: id, Op: "Filter", Strict: signature.Sig(strict), Recurring: "rec",
					Work: work, Parent: -1, Eligible: signature.EligibleOK},
			},
		}
	}
	// Inserted deliberately out of pinned order, across two day buckets.
	// Summed as j2, j0, j4 the 1 is lost to rounding (1e17 + 1 == 1e17);
	// summed as j2, j4, j0 it survives.
	r.Add(mk("j3", "vcB", t0.AddDate(0, 0, 1), "s2", 0))
	r.Add(mk("j1", "vcA", t0.Add(time.Hour), "s9", 0))
	r.Add(mk("j4", "vcA", t0.Add(time.Hour), "s1", -1e17)) // same submit as j1, earlier strict
	r.Add(mk("j2", "vcB", t0, "s5", 1e17))
	r.Add(mk("j0", "vcC", t0.Add(time.Hour), "s1", 1)) // ties with j4 on (submit, strict)

	g := r.GroupByRecurring(t0, t0.AddDate(0, 0, 2))["rec"]
	if g == nil {
		t.Fatal("missing group")
	}
	wantStrict := []signature.Sig{"s5", "s1", "s1", "s9", "s2"}
	if !reflect.DeepEqual(g.SubmitStrict, wantStrict) {
		t.Errorf("SubmitStrict = %v, want %v", g.SubmitStrict, wantStrict)
	}
	wantSubmits := []time.Time{t0, t0.Add(time.Hour), t0.Add(time.Hour), t0.Add(time.Hour), t0.AddDate(0, 0, 1)}
	if !reflect.DeepEqual(g.Submits, wantSubmits) {
		t.Errorf("Submits = %v, want %v", g.Submits, wantSubmits)
	}
	if g.AvgWork != 0 {
		t.Errorf("AvgWork = %g, want 0: j4 was summed before j0, the job-ID tiebreak did not hold", g.AvgWork)
	}
	wantVCs := []string{"vcA", "vcB", "vcC"}
	if !reflect.DeepEqual(g.VCs, wantVCs) {
		t.Errorf("VCs = %v, want %v", g.VCs, wantVCs)
	}
}

// digest renders everything reachable from a record: the job row, every
// subexpression row and every dataset list.
func digest(j *repository.JobRecord) string { return fmt.Sprintf("%+v", *j) }

// TestStoredRecordsAreNeverWritten holds the repository to its ownership rule
// from the reader's side. Records returned by Jobs and JobsBetween are the
// stored ones and are kept, unlocked, while SetOutcome runs on every job (some
// twice), new records are added and the windowed queries run; other goroutines
// keep re-reading the held records throughout. A write to a stored record —
// by SetOutcome or anything else — shows as a data race (run under -race -cpu
// 1,2,4) or as a changed digest; fresh reads must show the outcome, on a
// successor that shares the subexpression rows.
func TestStoredRecordsAreNeverWritten(t *testing.T) {
	r := repository.New()
	const jobs = 24
	for i := 0; i < jobs; i++ {
		r.Add(mkJob(fmt.Sprintf("j%02d", i), "vc1", "p", t0.Add(time.Duration(i)*time.Hour), "r", fmt.Sprint(i%3)))
	}
	from, to := t0, t0.AddDate(0, 0, 2)
	held := append(r.Jobs(), r.JobsBetween(from, to)...)
	if len(held) != 2*jobs {
		t.Fatalf("held %d records, want %d", len(held), 2*jobs)
	}
	want := make([]string, len(held))
	for i, j := range held {
		want[i] = digest(j)
	}
	groupsBefore := r.GroupByRecurring(from, to)

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, j := range held {
					if got := digest(j); got != want[i] {
						t.Errorf("held record %s changed under a reader:\n got %s\nwant %s", j.JobID, got, want[i])
						return
					}
				}
				r.GroupByRecurring(from, to)
				r.JobsBetween(from, to)
			}
		}()
	}
	outcomeOf := func(i int) (start, end time.Time, o repository.Outcome) {
		start = t0.Add(time.Duration(i)*time.Hour + time.Minute)
		return start, start.Add(time.Duration(i+1) * time.Minute),
			repository.Outcome{LatencySec: float64(60 * (i + 2)), Containers: int64(i + 1), JobRetries: 1}
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < jobs; i += 2 {
				id := fmt.Sprintf("j%02d", i)
				if i%4 == 0 {
					// A first outcome the second one must replace.
					r.SetOutcome(id, t0, t0, repository.Outcome{Containers: -1})
				}
				if start, end, o := outcomeOf(i); !r.SetOutcome(id, start, end, o) {
					t.Errorf("SetOutcome(%s) lost a stored record", id)
				}
				// A later day, so the two-day window's groups stay comparable.
				r.Add(mkJob(fmt.Sprintf("late-%d-%02d", w, i), "vc2", "p", t0.AddDate(0, 0, 3).Add(time.Duration(i)*time.Minute), "r", "late"))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for i, j := range held {
		if got := digest(j); got != want[i] {
			t.Errorf("held record %s was written after it was returned:\n got %s\nwant %s", j.JobID, got, want[i])
		}
	}
	fresh := r.Jobs()
	if len(fresh) != 2*jobs {
		t.Fatalf("Len = %d after the adds, want %d", len(fresh), 2*jobs)
	}
	for i := 0; i < jobs; i++ {
		got := fresh[i]
		start, end, o := outcomeOf(i)
		if !got.Start.Equal(start) || !got.End.Equal(end) || got.Outcome != o {
			t.Errorf("fresh read of %s does not show its outcome: %+v", got.JobID, got)
		}
		if got == held[i] {
			t.Errorf("%s: SetOutcome kept the stored record instead of installing a successor", got.JobID)
		}
		if &got.Subexprs[0] != &held[i].Subexprs[0] {
			t.Errorf("%s: the successor copied the subexpression rows", got.JobID)
		}
	}
	if !reflect.DeepEqual(groupsBefore, r.GroupByRecurring(from, to)) {
		t.Error("an outcome moved the window's aggregates")
	}
}

// TestAddKeepsTheRecord: the repository stores the record it is handed, not a
// copy, and hands the same one back.
func TestAddKeepsTheRecord(t *testing.T) {
	r := repository.New()
	rec := mkJob("j1", "vc1", "p", t0, "r", "a")
	r.Add(rec)
	if got := r.Jobs()[0]; got != rec {
		t.Errorf("Jobs()[0] = %p, want the record passed to Add (%p)", got, rec)
	}
	if got := r.JobsBetween(t0, t0.Add(time.Hour)); len(got) != 1 || got[0] != rec {
		t.Errorf("JobsBetween does not return the stored record: %v", got)
	}
	if g := r.GroupByRecurring(t0, t0.Add(time.Hour))["r-join"]; &g.InputDatasets[0] != &rec.Subexprs[2].InputDatasets[0] {
		t.Error("GroupStat.InputDatasets is a copy of the first occurrence's list")
	}
}

// TestSetOutcome verifies post-Add outcome application: fresh reads show the
// outcome, the record handed to Add (now the repository's) is not written, and
// a windowed read sees the new Start/End.
func TestSetOutcome(t *testing.T) {
	r := repository.New()
	orig := mkJob("j1", "vc1", "p", t0, "r", "a")
	r.Add(orig)
	if jobs := r.JobsBetween(t0, t0.Add(time.Hour)); len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	start, end := t0.Add(time.Minute), t0.Add(10*time.Minute)
	if !r.SetOutcome("j1", start, end, repository.Outcome{LatencySec: 540, Containers: 7}) {
		t.Fatal("SetOutcome returned false for a known job")
	}
	if r.SetOutcome("nope", start, end, repository.Outcome{}) {
		t.Error("SetOutcome must return false for an unknown job")
	}
	got := r.Jobs()[0]
	if !got.Start.Equal(start) || !got.End.Equal(end) || got.LatencySec != 540 || got.Containers != 7 {
		t.Errorf("outcome not applied: %+v", got)
	}
	if !orig.Start.Equal(t0) {
		t.Error("SetOutcome wrote to the stored record")
	}
	jobs := r.JobsBetween(t0, t0.Add(time.Hour))
	if len(jobs) != 1 || !jobs[0].Start.Equal(start) || !jobs[0].End.Equal(end) {
		t.Errorf("a windowed read must reflect the outcome: %+v", jobs)
	}
}

// randomRepo builds a repository plus the list of inserted records from a
// seeded source: jobs spread over ~10 day buckets with colliding submit
// times, shared recurring signatures across buckets, jobs that carry one
// (strict, recurring) subexpression twice — a full tie in the pinned order,
// told apart only by its metrics — and interleaved SetOutcome calls.
func randomRepo(rng *rand.Rand, n int) *repository.Repo {
	r := repository.New()
	clusters := []string{"c1", "c2"}
	vcs := []string{"vc1", "vc2", "vc3"}
	pipes := []string{"pA", "pB", "pC", "pD"}
	ops := []string{"Scan", "Filter", "Join", "Aggregate"}
	datasets := []string{"A", "B", "C", "D", "E"}
	for i := 0; i < n; i++ {
		// Coarse offsets make duplicate submit times likely.
		submit := t0.Add(time.Duration(rng.Intn(10*24)) * time.Hour)
		id := fmt.Sprintf("j%03d", i)
		j := &repository.JobRecord{
			JobID:    id,
			Cluster:  clusters[rng.Intn(len(clusters))],
			VC:       vcs[rng.Intn(len(vcs))],
			Pipeline: pipes[rng.Intn(len(pipes))],
			Submit:   submit,
			Start:    submit,
			End:      submit.Add(time.Duration(1+rng.Intn(120)) * time.Minute),
		}
		for s := 0; s < 1+rng.Intn(4); s++ {
			op := ops[rng.Intn(len(ops))]
			sub := repository.SubexprRecord{
				JobID:     id,
				Op:        op,
				Strict:    signature.Sig(fmt.Sprintf("strict-%d", rng.Intn(40))),
				Recurring: signature.Sig(fmt.Sprintf("rec-%d", rng.Intn(12))),
				Rows:      int64(rng.Intn(1000)),
				Bytes:     int64(rng.Intn(100000)),
				Work:      rng.Float64() * 50,
				Height:    rng.Intn(6),
				Parent:    -1,
			}
			if rng.Intn(2) == 0 {
				sub.Eligible = signature.EligibleOK
			}
			if op == "Scan" || rng.Intn(3) == 0 {
				for _, d := range datasets {
					if rng.Intn(3) == 0 {
						sub.InputDatasets = append(sub.InputDatasets, d)
					}
				}
			}
			if op == "Join" && rng.Intn(4) > 0 {
				sub.JoinAlgo = "Hash Join"
			}
			j.Subexprs = append(j.Subexprs, sub)
		}
		if rng.Intn(4) == 0 {
			dup := j.Subexprs[rng.Intn(len(j.Subexprs))]
			dup.Rows, dup.Bytes, dup.Work = int64(rng.Intn(1000)), int64(rng.Intn(100000)), rng.Float64()*50
			dup.Op, dup.Height = ops[rng.Intn(len(ops))], rng.Intn(6)
			j.Subexprs = append(j.Subexprs, dup)
		}
		r.Add(j)
		if rng.Intn(3) == 0 {
			// Outcome arrives later for a random earlier job.
			victim := fmt.Sprintf("j%03d", rng.Intn(i+1))
			st := t0.Add(time.Duration(rng.Intn(10*24)) * time.Hour)
			r.SetOutcome(victim, st, st.Add(time.Duration(1+rng.Intn(90))*time.Minute), repository.Outcome{
				LatencySec: rng.Float64() * 1000, Containers: int64(rng.Intn(50)),
			})
		}
	}
	return r
}

// TestIndexedMatchesNaiveProperty is the oracle property test: for random
// workloads and random [from, to) windows — empty, inverted, sub-day
// single-bucket, boundary-straddling, and full-history — every windowed
// query of the sharded store must be deep-equal (byte-identical field
// values) to the retained naive fold.
func TestIndexedMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		r := randomRepo(rng, 40+rng.Intn(60))
		windows := [][2]time.Time{
			{t0, t0},                // empty window
			{t0.Add(time.Hour), t0}, // inverted window
			{t0.Add(time.Hour), t0.Add(2 * time.Hour)},                       // sub-day, single bucket
			{t0, t0.AddDate(0, 0, 1)},                                        // exactly one full bucket
			{t0.Add(12 * time.Hour), t0.AddDate(0, 0, 2).Add(6 * time.Hour)}, // straddles boundaries
			{t0.AddDate(0, 0, -5), t0.AddDate(0, 0, 30)},                     // superset of history
			{t0.AddDate(0, 0, 20), t0.AddDate(0, 0, 25)},                     // beyond history
		}
		for i := 0; i < 6; i++ {
			a := t0.Add(time.Duration(rng.Intn(12*24*3600)) * time.Second)
			b := t0.Add(time.Duration(rng.Intn(12*24*3600)) * time.Second)
			windows = append(windows, [2]time.Time{a, b})
		}
		for wi, w := range windows {
			from, to := w[0], w[1]
			if got, want := r.JobsBetween(from, to), r.NaiveJobsBetween(from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d window %d: JobsBetween mismatch (%d vs %d jobs)", trial, wi, len(got), len(want))
			}
			if got, want := r.GroupByRecurring(from, to), r.NaiveGroupByRecurring(from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d window %d: GroupByRecurring mismatch\n got=%v\nwant=%v", trial, wi, got, want)
			}
		}
	}
}

// TestPreEpochBuckets pins the floored day-bucket math for pre-1970 submit
// times (integer division truncates toward zero; bucketing must floor).
func TestPreEpochBuckets(t *testing.T) {
	r := repository.New()
	old := time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC)
	r.Add(mkJob("j-old", "vc1", "p", old, "r", "o"))
	r.Add(mkJob("j-new", "vc1", "p", t0, "r", "n"))
	got := r.JobsBetween(old.Add(-time.Hour), old.Add(time.Hour))
	if len(got) != 1 || got[0].JobID != "j-old" {
		t.Fatalf("pre-epoch window returned %d jobs", len(got))
	}
	if !reflect.DeepEqual(
		r.GroupByRecurring(old, t0.AddDate(0, 0, 1)),
		r.NaiveGroupByRecurring(old, t0.AddDate(0, 0, 1)),
	) {
		t.Error("pre-epoch GroupByRecurring diverges from oracle")
	}
}

// TestAddStoresOneCopy holds Add to filing the record it is handed — the
// index entry plus the amortized growth of the three indexes — with nothing
// copied and nothing derived per subexpression: a day of 75 jobs with four
// subexpressions of distinct signatures each must cost at most 3 allocations
// per record.
func TestAddStoresOneCopy(t *testing.T) {
	const jobs = 75
	recs := make([]*repository.JobRecord, jobs)
	for i := range recs {
		id := fmt.Sprintf("j%02d", i)
		j := &repository.JobRecord{JobID: id, Cluster: "c1", VC: "vc1", Pipeline: "p",
			Submit: t0.Add(time.Duration(i) * time.Minute)}
		for s := 0; s < 4; s++ {
			j.Subexprs = append(j.Subexprs, repository.SubexprRecord{
				JobID: id, Op: "Scan", Parent: -1, Eligible: signature.EligibleOK,
				Strict:        signature.Sig(fmt.Sprintf("strict-%d-%d", i, s)),
				Recurring:     signature.Sig(fmt.Sprintf("rec-%d-%d", i, s)),
				InputDatasets: []string{"A", "B"},
			})
		}
		recs[i] = j
	}
	perDay := testing.AllocsPerRun(20, func() {
		r := repository.New()
		for _, j := range recs {
			r.Add(j)
		}
	})
	if perRecord := perDay / jobs; perRecord > 3 {
		t.Errorf("Add allocates %.1f times per 4-subexpression record, want <= 3", perRecord)
	} else {
		t.Logf("Add: %.1f allocations per 4-subexpression record", perRecord)
	}
}

// TestGroupByRecurringAllocsIndependentOfGroups: the fold carves every group
// from window-sized arrays, so a week of the same 2,100 occurrences costs
// about the same allocations spread over 300 recurring signatures as over 30.
func TestGroupByRecurringAllocsIndependentOfGroups(t *testing.T) {
	var allocs [2]float64
	for i, sigs := range []int{30, 300} {
		r := benchRepo(benchRecords(7, 75, 4, sigs))
		from, to := t0, t0.AddDate(0, 0, 7)
		if got := len(r.GroupByRecurring(from, to)); got < sigs*9/10 {
			t.Fatalf("%d signatures drawn at random made only %d groups", sigs, got)
		}
		allocs[i] = testing.AllocsPerRun(10, func() { r.GroupByRecurring(from, to) })
	}
	t.Logf("a week of 2,100 occurrences: %.0f allocations over 30 signatures, %.0f over 300", allocs[0], allocs[1])
	if d := allocs[1] - allocs[0]; d > 16 || d < -16 {
		t.Errorf("300 signatures cost %.0f allocations and 30 cost %.0f, want them within 16", allocs[1], allocs[0])
	}
}

// TestQueriesRaceWithAddAndSetOutcome runs every windowed query against
// concurrent Add and SetOutcome writers. Queries read the owned records in
// place, so the repository's lock alone must order them against both writers
// (run under -race -cpu 1,2,4); once the writers stop, every query must equal
// its oracle.
func TestQueriesRaceWithAddAndSetOutcome(t *testing.T) {
	r := repository.New()
	const writers, perWriter = 2, 150
	from, to := t0.AddDate(0, 0, -1), t0.AddDate(0, 0, 6)
	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.GroupByRecurring(from, to)
				r.JobsBetween(t0.Add(12*time.Hour), t0.AddDate(0, 0, 2))
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				submit := t0.Add(time.Duration(i%(5*24)) * time.Hour)
				r.Add(mkJob(id, fmt.Sprintf("vc%d", w), "p", submit, "r", fmt.Sprint(i%7)))
				victim := fmt.Sprintf("w%d-%03d", w, i/2)
				if !r.SetOutcome(victim, submit, submit.Add(time.Duration(i)*time.Minute), repository.Outcome{Containers: int64(i)}) {
					t.Errorf("SetOutcome(%s) lost a record this writer added", victim)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if r.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", r.Len(), writers*perWriter)
	}
	if got, want := r.GroupByRecurring(from, to), r.NaiveGroupByRecurring(from, to); !reflect.DeepEqual(got, want) {
		t.Error("GroupByRecurring diverges from the oracle after concurrent writes")
	}
	if got, want := r.JobsBetween(from, to), r.NaiveJobsBetween(from, to); !reflect.DeepEqual(got, want) || len(got) != writers*perWriter {
		t.Errorf("JobsBetween diverges from the oracle after concurrent writes (%d vs %d jobs)", len(got), len(want))
	}
}
