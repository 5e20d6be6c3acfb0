// Package workload generates synthetic Cosmos-like recurring workloads
// calibrated to the statistics the paper reports: ~80% of jobs are recurring
// templates executed periodically over freshly regenerated shared datasets,
// >75% of query subexpressions repeat, the average repeat frequency hovers
// around 5, and dataset sharing is heavy-tailed (a few cooked datasets feed
// tens to hundreds of downstream consumers). Workloads are deterministic in
// their seed.
//
// The generated world has three layers, mirroring §2's data-cooking pattern:
// raw telemetry streams (bulk-updated daily by ingestion), cooking pipelines
// (jobs that extract/normalize raw streams and publish cooked shared
// datasets), and downstream analytics pipelines whose templates share
// subexpression prefixes over the cooked datasets.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
)

// ClusterProfile sizes one generated cluster.
type ClusterProfile struct {
	Name string
	// VCs is the number of virtual clusters (customers).
	VCs int
	// Pipelines is the number of downstream analytics pipelines; each owns
	// 1–3 recurring job templates.
	Pipelines int
	// RawStreams / CookedDatasets / DimTables size the dataset universe.
	RawStreams     int
	CookedDatasets int
	DimTables      int
	// PrefixPool is the number of distinct shared subexpression prefixes
	// templates draw from; smaller pools mean more overlap.
	PrefixPool int
	// SharingSkew is the Zipf exponent for prefix and dataset popularity
	// (higher = heavier head, more sharing).
	SharingSkew float64
	// BurstFraction of pipelines submit all jobs at the start of the period
	// (the schedule-aware selection challenge of §4).
	BurstFraction float64
	// BurstWindow is how tightly burst submissions cluster (default one
	// hour; the Figure 9 experiment uses ~a minute to reproduce the paper's
	// concurrently executing joins).
	BurstWindow time.Duration
	// AdhocFraction adds one-off exploratory jobs on top of the recurring
	// templates, as a fraction of the daily template job count (paper: ~80%
	// of SCOPE jobs are recurring, so ~0.25 here). Ad-hoc subexpressions are
	// unique and never reused.
	AdhocFraction float64
	// RowsPerRawDay is the physical row count of each raw stream's daily
	// version (kept small; ScaleFactor carries the logical size).
	RowsPerRawDay int
	// RawScaleFactor is the logical size multiplier for raw streams.
	RawScaleFactor float64
	// RuntimeVersions is how many SCOPE runtime versions are in use.
	RuntimeVersions int
	Seed            uint64
}

// DefaultProfile returns a mid-sized cluster profile.
func DefaultProfile(name string) ClusterProfile {
	return ClusterProfile{
		Name:            name,
		VCs:             4,
		Pipelines:       60,
		RawStreams:      12,
		CookedDatasets:  18,
		DimTables:       4,
		PrefixPool:      45,
		SharingSkew:     1.25,
		BurstFraction:   0.25,
		RowsPerRawDay:   600,
		RawScaleFactor:  200_000,
		RuntimeVersions: 4,
		AdhocFraction:   0.25,
		Seed:            1,
	}
}

// PaperClusterProfiles returns five cluster profiles shaped like the paper's
// Figure 2: Cluster1 ("Asimov") shares far more heavily than the rest.
func PaperClusterProfiles() []ClusterProfile {
	mk := func(name string, pipelines, cooked, pool int, skew float64, seed uint64) ClusterProfile {
		p := DefaultProfile(name)
		p.Pipelines = pipelines
		p.CookedDatasets = cooked
		p.PrefixPool = pool
		p.SharingSkew = skew
		p.Seed = seed
		return p
	}
	return []ClusterProfile{
		mk("Cluster1", 120, 20, 50, 1.55, 11), // Asimov-like: heavy sharing
		mk("Cluster2", 80, 22, 60, 1.25, 22),
		mk("Cluster3", 70, 24, 60, 1.2, 33),
		mk("Cluster4", 60, 26, 64, 1.15, 44),
		mk("Cluster5", 50, 28, 70, 1.1, 55),
	}
}

// JobInput is one job ready for submission to the engine.
type JobInput struct {
	ID       string
	Cluster  string
	VC       string
	Pipeline string
	User     string
	Runtime  string
	Script   string
	Params   map[string]data.Value
	Submit   time.Time
	// OptIn is the job-level CloudViews toggle.
	OptIn bool
	// Cooking marks the pipeline jobs that publish cooked datasets; their
	// OUTPUT targets use the dataset: scheme.
	Cooking bool
}

// template is one recurring job template.
type template struct {
	id       int
	pipeline string
	vc       string
	user     string
	runtime  string
	script   string
	runsPer  int  // runs per day
	burst    bool // all runs at period start
	hour     int  // first submission hour
	minute   int
	cooking  bool
}

// Generator materializes the dataset universe and produces the daily job
// stream for one cluster.
type Generator struct {
	Profile ClusterProfile
	cat     *catalog.Catalog
	rng     *data.Rand

	rawNames    []string
	cookedNames []string
	dimNames    []string
	templates   []template
}

var rawSchema = data.Schema{
	{Name: "Ts", Kind: data.KindTime},
	{Name: "UserId", Kind: data.KindInt},
	{Name: "Region", Kind: data.KindString},
	{Name: "EventType", Kind: data.KindString},
	{Name: "Value", Kind: data.KindFloat},
	{Name: "Url", Kind: data.KindString},
}

var dimSchema = data.Schema{
	{Name: "Key", Kind: data.KindInt},
	{Name: "Segment", Kind: data.KindString},
	{Name: "Tier", Kind: data.KindInt},
}

var (
	regions    = []string{"us", "eu", "asia", "latam", "apac"}
	eventTypes = []string{"click", "view", "purchase", "error", "install"}
	segments   = []string{"consumer", "enterprise", "education", "public"}
)

// NewGenerator builds a generator over the catalog. Call Bootstrap before
// generating jobs.
func NewGenerator(cat *catalog.Catalog, profile ClusterProfile) *Generator {
	return &Generator{Profile: profile, cat: cat, rng: data.NewRand(profile.Seed)}
}

// Bootstrap defines the dataset universe and publishes day-0 versions.
func (g *Generator) Bootstrap() error {
	p := g.Profile
	for i := 0; i < p.RawStreams; i++ {
		name := fmt.Sprintf("%s_Raw%02d", p.Name, i)
		if _, err := g.cat.Define(name, rawSchema); err != nil {
			return err
		}
		// Telemetry volumes vary by orders of magnitude across products;
		// spread stream sizes log-uniformly over roughly 0.3x–4x.
		mult := 0.3 * math.Pow(13.0, float64(i)/float64(max(1, p.RawStreams-1)))
		g.cat.SetScaleFactor(name, p.RawScaleFactor*mult)
		g.rawNames = append(g.rawNames, name)
	}
	for i := 0; i < p.CookedDatasets; i++ {
		name := fmt.Sprintf("%s_Cooked%02d", p.Name, i)
		if _, err := g.cat.Define(name, rawSchema); err != nil {
			return err
		}
		// Cooked datasets are filtered/normalized raw data: still large but
		// smaller than raw.
		g.cat.SetScaleFactor(name, p.RawScaleFactor/2)
		g.cat.SetProducer(name, fmt.Sprintf("%s-cook-%02d", p.Name, i))
		g.cookedNames = append(g.cookedNames, name)
	}
	for i := 0; i < p.DimTables; i++ {
		name := fmt.Sprintf("%s_Dim%02d", p.Name, i)
		if _, err := g.cat.Define(name, dimSchema); err != nil {
			return err
		}
		g.cat.SetScaleFactor(name, 1) // dimension tables are genuinely small
		g.dimNames = append(g.dimNames, name)
	}
	if err := g.AdvanceDay(0); err != nil {
		return err
	}
	g.buildTemplates()
	return nil
}

// AdvanceDay publishes the day's bulk updates: every raw stream gets a fresh
// version; dimension tables refresh weekly. Cooked datasets are NOT updated
// here — cooking jobs produce them (the engine publishes their outputs) — but
// day 0 seeds them directly so consumers always have something to read.
func (g *Generator) AdvanceDay(day int) error {
	at := fixtures.Epoch.AddDate(0, 0, day)
	for i, name := range g.rawNames {
		t := g.rawTable(day, i)
		if _, err := g.cat.BulkUpdate(name, at, t); err != nil {
			return err
		}
	}
	if day == 0 {
		for i, name := range g.cookedNames {
			t := g.rawTable(day, 1000+i)
			if _, err := g.cat.BulkUpdate(name, at, t); err != nil {
				return err
			}
		}
	}
	if day%7 == 0 {
		for i, name := range g.dimNames {
			t := g.dimTable(day, i)
			if _, err := g.cat.BulkUpdate(name, at, t); err != nil {
				return err
			}
		}
	}
	return nil
}

func (g *Generator) rawTable(day, stream int) *data.Table {
	p := g.Profile
	rng := data.NewRand(p.Seed ^ uint64(day)*2654435761 ^ uint64(stream)*40503)
	t := data.NewTable(rawSchema)
	base := fixtures.Epoch.AddDate(0, 0, day)
	// AdvanceDay regenerates every raw stream, so the table is built with a
	// handful of allocations: rows from a slab, and the URL column — always
	// urlLen bytes of "https://svcNN/pNNN" — as slices of one string, built
	// in place at its final size.
	const urlLen = len("https://svc00/p000")
	n := p.RowsPerRawDay
	var slab data.RowSlab
	slab.Expect(n)
	t.Rows = make([]data.Row, 0, n)
	var urls strings.Builder
	urls.Grow(n * urlLen)
	for i := 0; i < n; i++ {
		row := slab.New(len(rawSchema))
		row[0] = data.Time(base.Add(time.Duration(rng.Intn(86400)) * time.Second))
		row[1] = data.Int(int64(rng.Zipf(10000, 1.1)))
		row[2] = data.String_(regions[rng.Intn(len(regions))])
		row[3] = data.String_(eventTypes[rng.Intn(len(eventTypes))])
		row[4] = data.Float(rng.Float64() * 200)
		urls.WriteString("https://svc")
		writePadded(&urls, rng.Intn(20), 2)
		urls.WriteString("/p")
		writePadded(&urls, rng.Intn(500), 3)
		t.Append(row)
	}
	all := urls.String()
	for i, row := range t.Rows {
		row[5] = data.String_(all[i*urlLen : (i+1)*urlLen])
	}
	return t
}

// writePadded writes v in decimal, zero-padded to width digits: fmt's %0*d
// for a non-negative v.
func writePadded(b *strings.Builder, v, width int) {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(v), 10)
	for pad := width - len(digits); pad > 0; pad-- {
		b.WriteByte('0')
	}
	b.Write(digits)
}

func (g *Generator) dimTable(day, dim int) *data.Table {
	rng := data.NewRand(g.Profile.Seed ^ uint64(day+7)*97 ^ uint64(dim)*131)
	t := data.NewTable(dimSchema)
	for k := 0; k < 500; k++ {
		t.Append(data.Row{
			data.Int(int64(k)),
			data.String_(segments[rng.Intn(len(segments))]),
			data.Int(1 + int64(rng.Intn(4))),
		})
	}
	return t
}
