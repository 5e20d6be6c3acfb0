package workload_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/plan"
	"cloudviews/internal/sqlparser"
	"cloudviews/internal/workload"
)

func smallProfile() workload.ClusterProfile {
	p := workload.DefaultProfile("WTest")
	p.Pipelines = 20
	p.RawStreams = 5
	p.CookedDatasets = 6
	p.DimTables = 2
	p.PrefixPool = 10
	p.RowsPerRawDay = 100
	return p
}

func bootstrap(t *testing.T) (*workload.Generator, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	gen := workload.NewGenerator(cat, smallProfile())
	if err := gen.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return gen, cat
}

func TestBootstrapDefinesUniverse(t *testing.T) {
	gen, cat := bootstrap(t)
	names := cat.Names()
	var raws, cooked, dims int
	for _, n := range names {
		switch {
		case strings.Contains(n, "_Raw"):
			raws++
		case strings.Contains(n, "_Cooked"):
			cooked++
		case strings.Contains(n, "_Dim"):
			dims++
		}
	}
	if raws != 5 || cooked != 6 || dims != 2 {
		t.Errorf("universe = %d raw, %d cooked, %d dim", raws, cooked, dims)
	}
	// Every dataset has a day-0 version.
	for _, n := range names {
		if _, err := cat.Latest(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if len(gen.JobsForDay(0)) == 0 {
		t.Error("no templates generated")
	}
	if len(gen.VCNames()) != smallProfile().VCs {
		t.Errorf("VCs = %d", len(gen.VCNames()))
	}
}

func TestRawStreamSizesHeterogeneous(t *testing.T) {
	_, cat := bootstrap(t)
	ds0, _ := cat.Dataset("WTest_Raw00")
	ds4, _ := cat.Dataset("WTest_Raw04")
	if ds4.EffectiveScale() <= ds0.EffectiveScale() {
		t.Errorf("stream sizes should grow with index: %g vs %g",
			ds0.EffectiveScale(), ds4.EffectiveScale())
	}
	if ds4.EffectiveScale() < 3*ds0.EffectiveScale() {
		t.Errorf("size spread too small: %g vs %g", ds0.EffectiveScale(), ds4.EffectiveScale())
	}
}

func TestAdvanceDayPublishesVersions(t *testing.T) {
	gen, cat := bootstrap(t)
	before := cat.VersionCount("WTest_Raw00")
	if err := gen.AdvanceDay(1); err != nil {
		t.Fatal(err)
	}
	if cat.VersionCount("WTest_Raw00") != before+1 {
		t.Error("raw stream not bulk-updated")
	}
	// Dims refresh weekly, so day 1 does not bump them...
	dimBefore := cat.VersionCount("WTest_Dim00")
	if err := gen.AdvanceDay(2); err != nil {
		t.Fatal(err)
	}
	if cat.VersionCount("WTest_Dim00") != dimBefore {
		t.Error("dim refreshed off-schedule")
	}
	// ...but day 7 does.
	for d := 3; d <= 7; d++ {
		if err := gen.AdvanceDay(d); err != nil {
			t.Fatal(err)
		}
	}
	if cat.VersionCount("WTest_Dim00") != dimBefore+1 {
		t.Error("dim not refreshed on day 7")
	}
}

func TestJobsForDayAllParseAndBind(t *testing.T) {
	gen, cat := bootstrap(t)
	jobs := gen.JobsForDay(0)
	if len(jobs) == 0 {
		t.Fatal("no jobs")
	}
	for _, in := range jobs {
		script, err := sqlparser.Parse(in.Script)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", in.ID, err, in.Script)
		}
		binder := &plan.Binder{Catalog: cat, Params: in.Params}
		outs, err := binder.BindScript(script)
		if err != nil {
			t.Fatalf("%s: bind: %v\n%s", in.ID, err, in.Script)
		}
		if len(outs) != 1 {
			t.Fatalf("%s: outputs = %d", in.ID, len(outs))
		}
	}
}

func TestJobsSortedBySubmitTime(t *testing.T) {
	gen, _ := bootstrap(t)
	jobs := gen.JobsForDay(0)
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Submit.Before(jobs[i-1].Submit) {
			t.Fatalf("jobs out of order at %d", i)
		}
	}
}

func TestCookingJobsPublishToDatasets(t *testing.T) {
	gen, _ := bootstrap(t)
	jobs := gen.JobsForDay(0)
	cooking := 0
	for _, in := range jobs {
		if in.Cooking {
			cooking++
			if !strings.Contains(in.Script, `TO "dataset:`) {
				t.Errorf("cooking job %s does not publish a dataset", in.ID)
			}
		}
	}
	if cooking != smallProfile().CookedDatasets {
		t.Errorf("cooking jobs = %d, want %d", cooking, smallProfile().CookedDatasets)
	}
}

func TestAdhocFractionRoughlyHonored(t *testing.T) {
	gen, _ := bootstrap(t)
	jobs := gen.JobsForDay(0)
	adhoc := 0
	for _, in := range jobs {
		if strings.Contains(in.ID, "adhoc") {
			adhoc++
		}
	}
	frac := float64(adhoc) / float64(len(jobs)-adhoc)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("adhoc fraction = %.2f, want ~0.25", frac)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	genA, _ := bootstrap(t)
	genB, _ := bootstrap(t)
	jobsA := genA.JobsForDay(0)
	jobsB := genB.JobsForDay(0)
	if len(jobsA) != len(jobsB) {
		t.Fatalf("job counts differ: %d vs %d", len(jobsA), len(jobsB))
	}
	for i := range jobsA {
		if jobsA[i].ID != jobsB[i].ID || jobsA[i].Script != jobsB[i].Script || !jobsA[i].Submit.Equal(jobsB[i].Submit) {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
}

func TestPrefixSharingExists(t *testing.T) {
	gen, _ := bootstrap(t)
	jobs := gen.JobsForDay(0)
	// Count identical prefix assignments ("p = ..." first lines) among
	// analytics jobs: overlap must exist by construction.
	prefixCount := map[string]int{}
	for _, in := range jobs {
		if in.Cooking || strings.Contains(in.ID, "adhoc") {
			continue
		}
		line := strings.SplitN(in.Script, ";", 2)[0]
		prefixCount[line]++
	}
	shared := 0
	for _, c := range prefixCount {
		if c > 1 {
			shared += c
		}
	}
	if shared == 0 {
		t.Error("no shared prefixes generated")
	}
}

func TestPaperClusterProfiles(t *testing.T) {
	profiles := workload.PaperClusterProfiles()
	if len(profiles) != 5 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	if profiles[0].SharingSkew <= profiles[4].SharingSkew {
		t.Error("Cluster1 must share more heavily than Cluster5")
	}
	seen := map[string]bool{}
	for _, p := range profiles {
		if seen[p.Name] {
			t.Errorf("duplicate cluster name %s", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestGeneratedTablesPinned: goldens, figures and the standing benchmark's
// reference answers are all computed over the generator's tables, so how they
// are built may change (rows from a slab, URLs without Sprintf) but their
// bytes may not. The digest was taken before that change.
func TestGeneratedTablesPinned(t *testing.T) {
	gen, cat := bootstrap(t)
	for d := 1; d <= 8; d++ {
		if err := gen.AdvanceDay(d); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	for _, n := range cat.Names() {
		vs, err := cat.Window(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			fmt.Fprintf(h, "%s %s\n", n, v.GUID)
			for _, r := range v.Table.Rows {
				fmt.Fprintln(h, r.String())
			}
		}
	}
	const want = "36f0e9b772fcacc7ef94905c845dc3fea00c8abecd7703a1e392abe38c8932c3"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("generated tables changed: digest %s, want %s", got, want)
	}
}

// TestVersionsReportTheirTableBytes: a scan reads a version's byte size from
// the version, measured once when it was published, so every version of the
// generated days — raw streams, cooked seeds and dimension tables — must
// report its table's ByteSize.
func TestVersionsReportTheirTableBytes(t *testing.T) {
	gen, cat := bootstrap(t)
	for d := 1; d <= 7; d++ {
		if err := gen.AdvanceDay(d); err != nil {
			t.Fatal(err)
		}
	}
	versions := 0
	for _, n := range cat.Names() {
		vs, err := cat.Window(n, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if want := v.Table.ByteSize(); v.Bytes != want || want == 0 {
				t.Errorf("%s %s: Bytes %d, its table measures %d", n, v.GUID, v.Bytes, want)
			}
			versions++
		}
	}
	if versions < 7*5 {
		t.Fatalf("%d versions over 8 days", versions)
	}
}
