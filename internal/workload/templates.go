package workload

import (
	"fmt"
	"sort"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/fixtures"
)

// prefixDef is one shared subexpression prefix: a filtered (optionally
// dim-joined) view over a cooked dataset. Templates drawing the same prefix
// id generate byte-identical prefix SQL, which is what makes their compiled
// subexpressions collide — the engine discovers the overlap via signatures,
// exactly as in production where nobody curates it.
type prefixDef struct {
	cooked int
	dim    int // -1 = no dim join
	// cooked2 >= 0 correlates two cooked streams (big⋈big, the "correlate
	// across multiple sources" cooking pattern); exclusive with dim.
	cooked2 int
	// raw >= 0 makes this a HEAVY prefix directly over a raw stream: a few
	// such prefixes shared by many pipelines dominate the cumulative
	// savings, while the typical job's reused slice stays modest — the
	// paper's median(15%) ≪ cumulative(34%) skew.
	raw  int
	pred string
}

// tailKind enumerates the template tail shapes.
type tailKind int

const (
	tailRegionAgg tailKind = iota
	tailEventSum
	tailRegionEventCount
	tailProjection
	tailUDOAgg
	tailParamWindow
	tailLocalJoin // heavy template-private work joined against the shared prefix
	tailNondetUDO // exercises the signature-correctness skip path
	tailKindCount
)

func (g *Generator) buildPrefixPool() []prefixDef {
	p := g.Profile
	preds := []string{
		"Value > 25",
		"Value > 80",
		"EventType = 'click'",
		"EventType = 'purchase'",
		"Region = 'asia'",
		"Region = 'us' AND Value > 10",
		"EventType = 'view' AND Value > 40",
		"Value > 5 AND Value <= 150",
	}
	pool := make([]prefixDef, p.PrefixPool)
	for i := range pool {
		d := prefixDef{
			cooked:  g.rng.Zipf(len(g.cookedNames), p.SharingSkew),
			dim:     -1,
			cooked2: -1,
			raw:     -1,
			pred:    preds[g.rng.Intn(len(preds))],
		}
		switch r := g.rng.Float64(); {
		case r < 0.35 && len(g.dimNames) > 0:
			d.dim = g.rng.Intn(len(g.dimNames))
		case r < 0.50 && len(g.cookedNames) > 1:
			d.cooked2 = g.rng.Zipf(len(g.cookedNames), p.SharingSkew)
			if d.cooked2 == d.cooked {
				d.cooked2 = (d.cooked2 + 1) % len(g.cookedNames)
			}
		}
		pool[i] = d
	}
	return pool
}

// buildHeavyPool returns the small pool of heavy raw-level prefixes used by
// the heavy-pipeline class: a handful of enormous shared extractions over the
// biggest telemetry streams. Their reuse dominates the cluster's cumulative
// savings while most jobs' gains stay modest — the paper's median ≪
// cumulative skew.
func (g *Generator) buildHeavyPool() []prefixDef {
	p := g.Profile
	n := max(4, p.PrefixPool/12)
	preds := []string{
		"EventType = 'click' AND Value > 10",
		"EventType = 'purchase'",
		"EventType = 'view' AND Value > 60",
		"Value > 150",
	}
	pool := make([]prefixDef, n)
	for i := range pool {
		// Bias toward the largest streams (highest indexes).
		idx := len(g.rawNames) - 1 - g.rng.Zipf(len(g.rawNames), 1.8)
		pool[i] = prefixDef{cooked: -1, dim: -1, cooked2: -1, raw: idx, pred: preds[g.rng.Intn(len(preds))]}
	}
	return pool
}

func (g *Generator) prefixSQL(d prefixDef) string {
	switch {
	case d.raw >= 0:
		return fmt.Sprintf("SELECT * FROM %s WHERE %s", g.rawNames[d.raw], d.pred)
	case d.dim >= 0:
		return fmt.Sprintf(
			"SELECT * FROM %s JOIN %s ON %s.UserId = %s.Key WHERE %s",
			g.cookedNames[d.cooked], g.dimNames[d.dim],
			g.cookedNames[d.cooked], g.dimNames[d.dim], d.pred)
	case d.cooked2 >= 0:
		// Correlate two cooked streams per user — the big⋈big pattern SCOPE
		// executes as a merge join. The projection restores the raw schema so
		// every tail works over any prefix.
		a, b := g.cookedNames[d.cooked], g.cookedNames[d.cooked2]
		return fmt.Sprintf(
			"SELECT %[1]s.Ts AS Ts, %[1]s.UserId AS UserId, Region, EventType, Value, Url "+
				"FROM %[1]s JOIN (SELECT DISTINCT UserId FROM %[2]s WHERE %[3]s) AS other ON %[1]s.UserId = other.UserId "+
				"WHERE %[3]s",
			a, b, d.pred)
	default:
		return fmt.Sprintf("SELECT * FROM %s WHERE %s", g.cookedNames[d.cooked], d.pred)
	}
}

func tailSQL(kind tailKind, templateID int, raw string) (string, bool) {
	// Template-specific literals keep tails distinct while prefixes collide.
	x := 10 + (templateID%7)*15
	switch kind {
	case tailRegionAgg:
		return "res = SELECT Region, COUNT(*) AS n, AVG(Value) AS avg_value FROM p GROUP BY Region;", false
	case tailEventSum:
		return "res = SELECT EventType, SUM(Value) AS total, MAX(Value) AS peak FROM p GROUP BY EventType;", false
	case tailRegionEventCount:
		return fmt.Sprintf("res = SELECT Region, EventType, COUNT(*) AS n FROM p WHERE Value > %d GROUP BY Region, EventType;", x), false
	case tailProjection:
		return fmt.Sprintf("res = SELECT UserId, Url, Value FROM p WHERE Value > %d;", x), false
	case tailUDOAgg:
		return "q = PROCESS p USING \"AddRowTag\";\n" +
			"res = SELECT Region, COUNT(*) AS n, MAX(row_tag) AS tag FROM q GROUP BY Region;", false
	case tailParamWindow:
		return "res = SELECT Region, COUNT(*) AS n FROM p WHERE Ts >= @cutoff GROUP BY Region;", true
	case tailLocalJoin:
		// Most of this job's cost is template-private (a raw-stream scan and
		// aggregation nobody else runs — the predicate embeds the template id
		// so it never collides), so reusing the shared prefix only improves
		// the job modestly — the paper's median-vs-cumulative gap.
		return fmt.Sprintf(
			"local = SELECT UserId, SUM(Value) AS lv FROM %s WHERE Value > %d AND UserId %% 9973 != %d AND Ts >= @runStart GROUP BY UserId;\n"+
				"res = SELECT Region, COUNT(*) AS n, AVG(lv) AS avg_local FROM p JOIN local ON p.UserId = local.UserId GROUP BY Region;",
			raw, x, templateID), true
	case tailNondetUDO:
		return "q = PROCESS p USING \"StampIngestTime\";\n" +
			"res = SELECT Region, COUNT(*) AS n FROM q GROUP BY Region;", false
	default:
		panic("unknown tail kind")
	}
}

// buildTemplates constructs the cooking and analytics templates.
func (g *Generator) buildTemplates() {
	p := g.Profile
	pool := g.buildPrefixPool()

	// Cooking pipelines: one per cooked dataset, publishing via the
	// dataset: output scheme. They run first thing every day.
	for i, cooked := range g.cookedNames {
		a := g.rawNames[g.rng.Intn(len(g.rawNames))]
		b := g.rawNames[g.rng.Intn(len(g.rawNames))]
		script := fmt.Sprintf(
			"c = SELECT * FROM %s WHERE EventType != 'error' UNION ALL SELECT * FROM %s WHERE EventType != 'error';\n"+
				"cooked = PROCESS c USING \"NormalizeStrings\";\n"+
				"OUTPUT cooked TO \"dataset:%s\";", a, b, cooked)
		g.templates = append(g.templates, template{
			id:       len(g.templates),
			pipeline: fmt.Sprintf("%s-cook-%02d", p.Name, i),
			vc:       g.vcName(i % p.VCs),
			user:     fmt.Sprintf("svc-cooking-%02d", i%8),
			runtime:  g.runtimeFor(i),
			script:   script,
			runsPer:  1,
			hour:     0,
			minute:   5 + i%40,
			cooking:  true,
		})
	}

	// Analytics pipelines. A small heavy class consumes the raw-level heavy
	// prefixes; the rest share cooked-level prefixes with mostly-private
	// tails.
	heavyPool := g.buildHeavyPool()
	for pi := 0; pi < p.Pipelines; pi++ {
		pipeline := fmt.Sprintf("%s-pipe-%03d", p.Name, pi)
		vc := g.vcName(g.rng.Intn(p.VCs))
		user := fmt.Sprintf("user-%03d", g.rng.Zipf(200, 1.2))
		nTemplates := 1 + g.rng.Intn(3)
		burst := g.rng.Float64() < p.BurstFraction
		heavy := g.rng.Float64() < 0.22
		for ti := 0; ti < nTemplates; ti++ {
			id := len(g.templates)
			prefix := pool[g.rng.Zipf(len(pool), p.SharingSkew)]
			kind := g.pickTail()
			if heavy {
				prefix = heavyPool[g.rng.Zipf(len(heavyPool), 1.4)]
				kind = tailKind(g.rng.Intn(3)) // cheap aggregation tails
			}
			raw := g.rawNames[g.rng.Intn(len(g.rawNames))]
			tail, _ := tailSQL(kind, id, raw)
			script := fmt.Sprintf("p = %s;\n%s\nOUTPUT res TO \"out/%s/t%02d\";",
				g.prefixSQL(prefix), tail, pipeline, ti)
			runs := 1
			if heavy {
				runs = 2 + g.rng.Intn(3)
			} else if !burst && g.rng.Float64() < 0.4 {
				runs = 2 + g.rng.Intn(4) // intra-day recurrences
			}
			g.templates = append(g.templates, template{
				id:       id,
				pipeline: pipeline,
				vc:       vc,
				user:     user,
				runtime:  g.runtimeFor(id),
				script:   script,
				runsPer:  runs,
				burst:    burst,
				// Analytics concentrates in business hours, which is what
				// makes queues form — and what reuse then relieves.
				hour:    1 + g.rng.Intn(8),
				minute:  g.rng.Intn(60),
				cooking: false,
			})
		}
	}
}

// pickTail biases toward the common aggregation shapes; the exotic tails
// (non-deterministic UDO) stay rare, as in production.
func (g *Generator) pickTail() tailKind {
	r := g.rng.Float64()
	switch {
	case r < 0.04:
		return tailRegionAgg
	case r < 0.08:
		return tailEventSum
	case r < 0.12:
		return tailRegionEventCount
	case r < 0.15:
		return tailProjection
	case r < 0.19:
		return tailUDOAgg
	case r < 0.22:
		return tailParamWindow
	case r < 0.97:
		return tailLocalJoin
	default:
		return tailNondetUDO
	}
}

func (g *Generator) vcName(i int) string {
	return fmt.Sprintf("%s-vc%02d", g.Profile.Name, i)
}

// VCNames lists the cluster's virtual clusters.
func (g *Generator) VCNames() []string {
	out := make([]string, g.Profile.VCs)
	for i := range out {
		out[i] = g.vcName(i)
	}
	return out
}

func (g *Generator) runtimeFor(templateID int) string {
	n := g.Profile.RuntimeVersions
	if n <= 1 {
		return "scope-r1"
	}
	// Most templates run the newest couple of runtimes; a long tail runs
	// older ones.
	v := g.rng.Zipf(n, 1.6)
	return fmt.Sprintf("scope-r%d", n-v)
}

// JobsForDay instantiates every template's submissions for the given day,
// ordered by submission time. Cooking jobs come first (hour 0).
func (g *Generator) JobsForDay(day int) []JobInput {
	dayStart := fixtures.Epoch.AddDate(0, 0, day)
	var jobs []JobInput
	for _, t := range g.templates {
		for r := 0; r < t.runsPer; r++ {
			var submit time.Time
			switch {
			case t.cooking:
				submit = dayStart.Add(time.Duration(t.minute) * time.Minute)
			case t.burst:
				// Burst pipelines fire everything at the start of the period,
				// spread across the profile's burst window.
				window := g.Profile.BurstWindow
				if window <= 0 {
					window = time.Hour
				}
				submit = dayStart.Add(1*time.Hour + window*time.Duration(t.minute)/60)
			default:
				h := (t.hour + r*3) % 24
				submit = dayStart.Add(time.Duration(h)*time.Hour + time.Duration(t.minute)*time.Minute)
			}
			// Each intra-day run processes its own window: the private parts
			// of the plan differ per run (strict signatures include the
			// parameter value) while parameter-free shared prefixes still
			// match across runs.
			params := map[string]data.Value{
				"cutoff":   data.Time(dayStart),
				"runStart": data.Time(dayStart.Add(time.Duration(r) * 3 * time.Hour)),
			}
			jobs = append(jobs, JobInput{
				ID:       fmt.Sprintf("%s-d%03d-t%04d-r%d", g.Profile.Name, day, t.id, r),
				Cluster:  g.Profile.Name,
				VC:       t.vc,
				Pipeline: t.pipeline,
				User:     t.user,
				Runtime:  t.runtime,
				Script:   t.script,
				Params:   params,
				Submit:   submit,
				OptIn:    true,
				Cooking:  t.cooking,
			})
		}
	}
	jobs = append(jobs, g.adhocJobs(day, len(jobs))...)
	sortJobs(jobs)
	return jobs
}

// adhocJobs generates the day's one-off exploratory queries: unique literals
// guarantee their subexpressions never repeat, diluting the overlap exactly
// as ad-hoc analysis does in production.
func (g *Generator) adhocJobs(day, templateJobs int) []JobInput {
	p := g.Profile
	n := int(float64(templateJobs) * p.AdhocFraction)
	if n == 0 {
		return nil
	}
	dayStart := fixtures.Epoch.AddDate(0, 0, day)
	rng := data.NewRand(p.Seed ^ 0xadc0ffee ^ uint64(day)*7919)
	jobs := make([]JobInput, 0, n)
	for i := 0; i < n; i++ {
		u := day*100000 + i // unique discriminator
		ds := g.cookedNames[rng.Intn(len(g.cookedNames))]
		if rng.Float64() < 0.3 {
			ds = g.rawNames[rng.Intn(len(g.rawNames))]
		}
		var script string
		switch rng.Intn(3) {
		case 0:
			script = fmt.Sprintf(
				"res = SELECT Region, COUNT(*) AS n FROM %s WHERE Value > %d AND UserId %% 99991 != %d GROUP BY Region;\nOUTPUT res TO \"out/adhoc/%d\";",
				ds, 5+rng.Intn(150), u, u)
		case 1:
			script = fmt.Sprintf(
				"res = SELECT UserId, Value, Url FROM %s WHERE Value > %d AND UserId %% 99991 != %d;\nOUTPUT res TO \"out/adhoc/%d\";",
				ds, 5+rng.Intn(150), u, u)
		default:
			script = fmt.Sprintf(
				"res = SELECT EventType, MAX(Value) AS peak FROM %s WHERE UserId %% 99991 != %d GROUP BY EventType;\nOUTPUT res TO \"out/adhoc/%d\";",
				ds, u, u)
		}
		jobs = append(jobs, JobInput{
			ID:       fmt.Sprintf("%s-d%03d-adhoc-%04d", p.Name, day, i),
			Cluster:  p.Name,
			VC:       g.vcName(rng.Intn(p.VCs)),
			Pipeline: fmt.Sprintf("adhoc-user-%03d", rng.Zipf(300, 1.2)),
			User:     fmt.Sprintf("user-%03d", rng.Zipf(300, 1.2)),
			Runtime:  g.runtimeFor(rng.Intn(1000)),
			Script:   script,
			Params: map[string]data.Value{
				"cutoff":   data.Time(dayStart),
				"runStart": data.Time(dayStart),
			},
			Submit: dayStart.Add(time.Duration(1+rng.Intn(20))*time.Hour + time.Duration(rng.Intn(3600))*time.Second),
			OptIn:  true,
		})
	}
	return jobs
}

func sortJobs(jobs []JobInput) {
	sort.SliceStable(jobs, func(i, j int) bool {
		if !jobs[i].Submit.Equal(jobs[j].Submit) {
			return jobs[i].Submit.Before(jobs[j].Submit)
		}
		return jobs[i].ID < jobs[j].ID
	})
}
