package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Severity grades an alert.
type Severity string

// Severities, mildest first.
const (
	SevWarn Severity = "warn"
	SevPage Severity = "page"
)

// RuleKind selects the comparison a rule applies to its metric.
type RuleKind int

const (
	// Above fires when the day's value exceeds Threshold.
	Above RuleKind = iota
	// Below fires when the day's value falls under Threshold.
	Below
	// DropPct fires when the day's value dropped more than Threshold percent
	// relative to the windowed reference (mean of the prior Window samples).
	DropPct
	// GrowthPct fires when the day's value grew more than Threshold percent
	// relative to the windowed reference.
	GrowthPct
)

func (k RuleKind) String() string {
	switch k {
	case Above:
		return "above"
	case Below:
		return "below"
	case DropPct:
		return "drop-pct"
	case GrowthPct:
		return "growth-pct"
	}
	return "unknown"
}

// Rule is one declarative SLO check evaluated against the sampled series at
// every end-of-day tick.
type Rule struct {
	// Name identifies the rule in alert records (stable, kebab-case).
	Name string
	// Metric is the series name the rule watches. A trailing '*' makes it a
	// prefix match over every sampled series (e.g. `cloudviews_view_bytes{*`
	// watches each per-VC byte gauge independently).
	Metric string
	Kind   RuleKind
	// Threshold is the absolute limit (Above/Below) or the percent delta
	// (DropPct/GrowthPct).
	Threshold float64
	// Window is how many prior samples form the delta reference (default 1:
	// plain day-over-day).
	Window int
	// MinReference silences delta rules while the reference is below this
	// floor (a 60% drop from a near-zero hit rate is noise, not regression).
	MinReference float64
	// MinValue silences the rule while the day's value is below this floor.
	MinValue float64
	// MinCount silences the rule until the series has accumulated at least
	// this many samples (ever appended, not just retained). Absolute rules
	// otherwise judge a cold series on its very first sample — day-1 noise
	// that must not drive rollback decisions.
	MinCount int
	Severity Severity
}

// Alert is one deterministic watchdog finding.
type Alert struct {
	Day      int
	Rule     string
	Severity Severity
	Metric   string
	// Value is the day's sampled value; Reference the comparison value (the
	// threshold for Above/Below, the windowed mean for delta rules).
	Value     float64
	Reference float64
	Message   string
}

// String renders the alert as one deterministic log line.
func (a Alert) String() string {
	return fmt.Sprintf("day %02d [%s] %s: %s", a.Day, a.Severity, a.Rule, a.Message)
}

// Watchdog evaluates a fixed rule list against the series map. Alerts come
// back ordered by (rule order, metric name), so identical runs emit
// byte-identical alert logs.
type Watchdog struct {
	rules []Rule
}

// NewWatchdog builds a watchdog over the given rules (order is preserved and
// determines alert order within a day).
func NewWatchdog(rules []Rule) *Watchdog {
	return &Watchdog{rules: append([]Rule(nil), rules...)}
}

// Evaluate runs every rule against the series sampled for `day` and returns
// the alerts in deterministic order. Series whose latest sample is not for
// this day are skipped (the rule only judges fresh data).
func (w *Watchdog) Evaluate(day int, series map[string]*Series) []Alert {
	var alerts []Alert
	for _, r := range w.rules {
		for _, name := range r.matchNames(series) {
			s := series[name]
			if s == nil || s.LastDay() != day {
				continue
			}
			if a, fired := r.check(day, name, s); fired {
				alerts = append(alerts, a)
			}
		}
	}
	return alerts
}

// matchNames resolves the rule's metric to concrete series names, sorted.
func (r Rule) matchNames(series map[string]*Series) []string {
	if !strings.HasSuffix(r.Metric, "*") {
		if _, ok := series[r.Metric]; ok {
			return []string{r.Metric}
		}
		return nil
	}
	prefix := strings.TrimSuffix(r.Metric, "*")
	var names []string
	for name := range series {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func (r Rule) check(day int, name string, s *Series) (Alert, bool) {
	if s.Count() < r.MinCount {
		return Alert{}, false
	}
	v := s.Last()
	if v < r.MinValue {
		return Alert{}, false
	}
	window := r.Window
	if window < 1 {
		window = 1
	}
	switch r.Kind {
	case Above:
		if v > r.Threshold {
			return r.alert(day, name, v, r.Threshold,
				fmt.Sprintf("%s = %s exceeds budget %s", name, fmtVal(v), fmtVal(r.Threshold))), true
		}
	case Below:
		if v < r.Threshold {
			return r.alert(day, name, v, r.Threshold,
				fmt.Sprintf("%s = %s under floor %s", name, fmtVal(v), fmtVal(r.Threshold))), true
		}
	case DropPct:
		ref, ok := s.Reference(window)
		if !ok || ref < r.MinReference || ref <= 0 {
			return Alert{}, false
		}
		if drop := 100 * (ref - v) / ref; drop > r.Threshold {
			return r.alert(day, name, v, ref,
				fmt.Sprintf("%s dropped %.1f%% vs %d-day reference (%s -> %s, limit %.0f%%)",
					name, drop, window, fmtVal(ref), fmtVal(v), r.Threshold)), true
		}
	case GrowthPct:
		ref, ok := s.Reference(window)
		if !ok || ref < r.MinReference || ref <= 0 {
			return Alert{}, false
		}
		if growth := 100 * (v - ref) / ref; growth > r.Threshold {
			return r.alert(day, name, v, ref,
				fmt.Sprintf("%s grew %.1f%% vs %d-day reference (%s -> %s, limit %.0f%%)",
					name, growth, window, fmtVal(ref), fmtVal(v), r.Threshold)), true
		}
	}
	return Alert{}, false
}

func (r Rule) alert(day int, metric string, value, ref float64, msg string) Alert {
	return Alert{
		Day: day, Rule: r.Name, Severity: r.Severity,
		Metric: metric, Value: value, Reference: ref, Message: msg,
	}
}

func fmtVal(v float64) string { return fmt.Sprintf("%.4g", v) }

// The rule list is the configuration. DefaultRules and ServerRules return
// fresh lists a caller may edit: WithThreshold moves one threshold, append
// adds a rule — the opt-in StorageBudgetRule or any other Rule value.

// DefaultRules is the engine's rule list: hit-rate regression, queue growth,
// fault-recovery spikes and miss-reason spikes. It stays silent on a healthy
// fault-free run: the delta rules carry noise floors and the fault rule only
// counts actual recovery work.
func DefaultRules() []Rule {
	return []Rule{
		{
			// Warns when the per-day view hit rate drops more than 60% vs.
			// the prior day; silent while the reference is under 0.10
			// views/job.
			Name: "hit-rate-drop", Metric: SeriesHitRate, Kind: DropPct,
			Threshold: 60, Window: 1, MinReference: 0.10, Severity: SevWarn,
		},
		{
			// Warns when the average queue length at job start grows more
			// than 150% day over day; silent under a queue of 4.
			Name: "queue-growth", Metric: SeriesQueueLenAvg, Kind: GrowthPct,
			Threshold: 150, Window: 1, MinReference: 0.5, MinValue: 4, Severity: SevWarn,
		},
		{
			// Warns when a day performs more than 8 fault recoveries (job
			// retries + stage retries + preemptions + reuse fallbacks); any
			// clean day scores 0.
			Name: "fault-spike", Metric: SeriesFaultRecoveries, Kind: Above,
			Threshold: 8, Severity: SevWarn,
		},
		{
			// One labeled series per miss reason, judged independently: the
			// prefix match fans the rule out over day_reuse_miss{reason="x"}.
			// A miss mix shifts slowly on a healthy fleet; a 5x single-reason
			// spike means a control flipped, a breaker storm, or an expiry
			// wave. Growth from under 16 misses/day, or to under 32, is noise.
			Name: "miss-reason-spike", Metric: SeriesMissPrefix + "*", Kind: GrowthPct,
			Threshold: 400, Window: 1, MinReference: 16, MinValue: 32, Severity: SevWarn,
		},
	}
}

// StorageBudgetRule pages when any VC's sealed-view bytes exceed the budget
// (mirrors analysis.SelectionConfig's budget). Opt-in: append it to a rule
// list.
func StorageBudgetRule(bytes float64) Rule {
	return Rule{
		Name: "storage-budget", Metric: "cloudviews_view_bytes{*", Kind: Above,
		Threshold: bytes, Severity: SevPage,
	}
}

// ServerRules is cvserve's rule list: per-tenant shed spikes,
// authentication-failure spikes and per-tenant accept-rate regressions.
// Metric names match the server's request registry (cvserve_*). Values are
// judged against per-sample-interval deltas of the request counters (the
// server samples cumulative counters as deltas), so the thresholds read as
// "per interval"; the list stays silent on a healthy, uncongested server.
func ServerRules() []Rule {
	return []Rule{
		{
			// Any tenant shedding more than 50 submissions in one interval.
			Name: "shed-spike", Metric: "cvserve_shed_total{*", Kind: Above,
			Threshold: 50, Severity: SevWarn,
		},
		{
			// More than 20 rejected authentications in one interval.
			Name: "auth-failures", Metric: "cvserve_auth_failures_total", Kind: Above,
			Threshold: 20, Severity: SevWarn,
		},
		{
			// A tenant's accepted-per-interval rate dropping more than 80%
			// vs. the prior interval; tenants under 20 accepted/interval are
			// noise.
			Name: "accept-drop", Metric: "cvserve_accepted_total{*", Kind: DropPct,
			Threshold: 80, Window: 1, MinReference: 20, Severity: SevWarn,
		},
	}
}

// WithThreshold returns a copy of rules with the named rule's Threshold set
// to v. It panics when no rule has that name: a misspelt name must not leave
// the default in force unnoticed.
func WithThreshold(rules []Rule, name string, v float64) []Rule {
	out := append([]Rule(nil), rules...)
	for i := range out {
		if out[i].Name == name {
			out[i].Threshold = v
			return out
		}
	}
	panic("telemetry: WithThreshold: no rule named " + name)
}

// Verdict summarizes an alert list as one deterministic token for A/B arm
// reporting: "OK" when empty, otherwise e.g. "REGRESSED (2 page, 3 warn)".
func Verdict(alerts []Alert) string {
	if len(alerts) == 0 {
		return "OK"
	}
	var pages, warns int
	for _, a := range alerts {
		if a.Severity == SevPage {
			pages++
		} else {
			warns++
		}
	}
	parts := make([]string, 0, 2)
	if pages > 0 {
		parts = append(parts, fmt.Sprintf("%d page", pages))
	}
	if warns > 0 {
		parts = append(parts, fmt.Sprintf("%d warn", warns))
	}
	return "REGRESSED (" + strings.Join(parts, ", ") + ")"
}
