package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"cloudviews/internal/analysis"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
	"cloudviews/internal/workload"
)

// orderedDigest hashes a table cell by cell in storage order — schema, row
// count, each row's length, all five fields of every cell — so a reordered,
// truncated or scribbled table reads differently (Table.Fingerprint sorts).
func orderedDigest(t *data.Table) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	io.WriteString(h, t.Schema.String())
	put(uint64(len(t.Rows)))
	for _, r := range t.Rows {
		put(uint64(len(r)))
		for _, v := range r {
			var b uint64
			if v.B {
				b = 1
			}
			put(uint64(v.Kind))
			put(uint64(v.I))
			put(math.Float64bits(v.F))
			put(uint64(len(v.S)))
			io.WriteString(h, v.S)
			put(b)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestStoredTablesAreNeverWritten holds the ownership rule the system shares
// tables under: a table is written by the operator invocation that builds it
// and by nobody afterwards. The generator's feedback loop runs for three days
// with every VC onboarded — bulk updates, cooking jobs that publish their
// output, views spooled, sealed and read back, result-cache replays, nightly
// analysis — on the batch kernels and on the row loops. Every table the
// catalog, the view store or the result cache holds is digested, in storage
// order, the first time it is seen (after the job that produced it), and must
// digest the same once everything that could have read it has run. The test
// also requires the sharing to be real: a published version that is a job's
// output table and a stored view that is a cached result.
func TestStoredTablesAreNeverWritten(t *testing.T) {
	for _, vectorized := range []bool{true, false} {
		t.Run(fmt.Sprintf("vectorized=%v", vectorized), func(t *testing.T) {
			p := workload.DefaultProfile("Shared")
			p.Pipelines = 12
			p.RawStreams = 4
			p.CookedDatasets = 5
			p.DimTables = 2
			p.PrefixPool = 8
			p.RowsPerRawDay = 150
			p.VCs = 2
			cat := catalog.New()
			gen := workload.NewGenerator(cat, p)
			if err := gen.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			var vcs []cluster.VCConfig
			for _, vc := range gen.VCNames() {
				vcs = append(vcs, cluster.VCConfig{Name: vc, Tokens: 60})
			}
			eng := NewEngine(Config{
				ClusterName: "Shared",
				Catalog:     cat,
				ClusterCfg:  cluster.Config{Capacity: 400, VCs: vcs},
				Selection:   analysis.SelectionConfig{ScheduleAware: true, UseBigSubs: true},
			})
			eng.rowLoops = !vectorized
			for _, vc := range gen.VCNames() {
				eng.OnboardVC(vc)
			}

			type firstSight struct {
				digest [sha256.Size]byte
				where  string
			}
			seen := map[*data.Table]firstSight{}
			observe := func(where string, tb *data.Table) {
				if _, ok := seen[tb]; !ok && tb != nil {
					seen[tb] = firstSight{orderedDigest(tb), where}
				}
			}
			versions, views := map[*data.Table]bool{}, map[*data.Table]bool{}
			sweep := func() {
				for _, name := range cat.Names() {
					vs, err := cat.Window(name, cat.VersionCount(name))
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range vs {
						observe("catalog version "+string(v.GUID), v.Table)
						versions[v.Table] = true
					}
				}
				for _, v := range eng.Store.Views() {
					observe("view "+v.Path, v.Table)
					views[v.Table] = true
				}
			}

			outputs, cached := map[*data.Table]bool{}, map[*data.Table]bool{}
			var built, reused, hits int
			for day := 0; day < 3; day++ {
				if day > 0 {
					if err := gen.AdvanceDay(day); err != nil {
						t.Fatal(err)
					}
				}
				sweep() // the day's bulk updates, before any job reads them
				cache := eng.resetCache()
				for _, in := range gen.JobsForDay(day) {
					run, err := eng.CompileAndExecute(in)
					if err != nil {
						t.Fatal(err)
					}
					built += len(run.Compile.Proposed)
					reused += len(run.Compile.Matched)
					hits += run.Exec.CacheHits
					for _, sig := range run.Compile.Physical {
						if e, ok := cache.Get(sig); ok {
							observe("result cache "+sig.Short(), e.Table)
							cached[e.Table] = true
						}
					}
					observe("output of "+in.ID, run.Exec.Table)
					outputs[run.Exec.Table] = true
					sweep()
				}
				eng.RunAnalysis(fixtures.Epoch.AddDate(0, 0, day-7), fixtures.Epoch.AddDate(0, 0, day+1))
			}

			if built == 0 || reused == 0 || hits == 0 {
				t.Fatalf("the loop built %d views, reused %d and hit the result cache %d times; all three must happen", built, reused, hits)
			}
			shared := func(a, b map[*data.Table]bool) int {
				n := 0
				for tb := range a {
					if b[tb] {
						n++
					}
				}
				return n
			}
			if n := shared(versions, outputs); n == 0 {
				t.Error("no catalog version is a job's output table: the cooked-dataset publish copies again")
			}
			if n := shared(views, cached); n == 0 {
				t.Error("no stored view is a cached result table: the spool copies again")
			}
			for tb, first := range seen {
				if orderedDigest(tb) != first.digest {
					t.Errorf("%s (%d rows) was written after it was first seen", first.where, tb.NumRows())
				}
			}
			t.Logf("%d tables held (%d versions, %d views, %d cached results, %d outputs); %d views built, %d reused, %d cache hits",
				len(seen), len(versions), len(views), len(cached), len(outputs), built, reused, hits)
		})
	}
}
