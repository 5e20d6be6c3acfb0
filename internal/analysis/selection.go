package analysis

import (
	"sort"
	"time"

	"cloudviews/internal/exec"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

// Candidate is one subexpression proposed for materialization.
type Candidate struct {
	Recurring signature.Sig
	Op        string
	VC        string
	// Frequency is the occurrence count in the analysis window.
	Frequency int
	// Utility is the estimated container-seconds saved per analysis window:
	// (freq-1) recomputations avoided, minus the read cost paid on each
	// reuse and the one-time write cost.
	Utility float64
	// StorageCost is the expected logical bytes of the artifact.
	StorageCost   int64
	ExpectedRows  int64
	ExpectedBytes int64
	ExpectedWork  float64
	// JobTemplates are the job templates that contain the subexpression
	// (used to publish annotations under each job's tag).
	JobTemplates []signature.Sig
}

// SelectionConfig tunes view selection.
type SelectionConfig struct {
	// StorageBudgetPerVC bounds the total StorageCost selected per VC
	// (paper: customers configure storage, which "affects the number of
	// views selected"). Zero means unlimited.
	StorageBudgetPerVC int64
	// ScheduleAware drops candidates whose occurrences are all submitted
	// within concurrencyWindow of each other: the view could not finish
	// materializing before its consumers start (§4, "Schedule-aware views").
	ScheduleAware bool
	// UseBigSubs switches from plain greedy knapsack to the BigSubs-style
	// interaction-aware selector.
	UseBigSubs bool
}

const (
	// minFrequency drops subexpressions seen fewer times in the window.
	minFrequency = 2
	// concurrencyWindow defines "at the same time" for schedule awareness.
	concurrencyWindow = 5 * time.Minute
)

// jobGraph captures, per job template, which candidates appear in it and
// their nesting, for interaction-aware selection.
type jobGraph struct {
	// covers[sigA][sigB] counts occurrences of candidate B that sit under an
	// occurrence of candidate A within the same job: if A is materialized,
	// those B occurrences will match A first and B's view goes unused.
	covers map[signature.Sig]map[signature.Sig]int
}

// SelectViews runs view selection over the repository window and returns the
// selected candidates grouped by VC. It also returns the rejected-for-
// schedule count for observability.
func SelectViews(repo *repository.Repo, from, to time.Time, cfg SelectionConfig) (map[string][]Candidate, int) {
	groups := repo.GroupByRecurring(from, to)

	// Build candidates.
	var candidates []Candidate
	scheduleRejected := 0
	for _, g := range groups {
		if !g.Eligible || g.Count < minFrequency {
			continue
		}
		if g.AvgWork <= 0 || g.AvgBytes <= 0 {
			continue
		}
		// Reuse only happens among occurrences of the SAME strict instance
		// (same inputs, same parameters): recurrences across bulk updates
		// rebuild the view rather than reuse it. The reuse opportunity is
		// therefore occurrences minus distinct instances.
		reuses := g.Count - g.DistinctStrict
		if reuses < minFrequency-1 {
			continue
		}
		if cfg.ScheduleAware && !anyInstanceReusable(g, concurrencyWindow) {
			scheduleRejected++
			continue
		}
		readCost := exec.ViewReadWork(int64(g.AvgRows), int64(g.AvgBytes))
		writeCost := exec.SpoolWriteWork(int64(g.AvgBytes))
		utility := float64(reuses)*(g.AvgWork-readCost) - float64(g.DistinctStrict)*writeCost
		if utility <= 0 {
			continue
		}
		// Assign to the VC with the most occurrences (per-customer
		// selection; a view is stored and budgeted in its home VC).
		vc := dominantVC(g)
		candidates = append(candidates, Candidate{
			Recurring:     g.Recurring,
			Op:            g.Op,
			VC:            vc,
			Frequency:     g.Count,
			Utility:       utility,
			StorageCost:   int64(g.AvgBytes),
			ExpectedRows:  int64(g.AvgRows),
			ExpectedBytes: int64(g.AvgBytes),
			ExpectedWork:  g.AvgWork,
		})
	}

	// Attach job templates for annotation publishing and build the nesting
	// graph in one scan.
	graph := buildJobGraph(repo, from, to, candidates)

	byVC := make(map[string][]Candidate)
	for _, c := range candidates {
		byVC[c.VC] = append(byVC[c.VC], c)
	}
	out := make(map[string][]Candidate, len(byVC))
	for vc, cands := range byVC {
		if cfg.UseBigSubs {
			out[vc] = bigSubsSelect(cands, graph, cfg)
		} else {
			out[vc] = greedySelect(cands, cfg)
		}
	}
	return out, scheduleRejected
}

// anyInstanceReusable reports whether at least one strict instance of the
// group has a consumer submitted more than window after the instance's first
// occurrence — i.e., materialization could finish before somebody reuses it.
// Groups where every instance's occurrences land together are the §4
// schedule-aware rejection case ("jobs that get scheduled at the same time
// cannot benefit from such reuse").
// The repository pins GroupStat occurrence order (submit time, then strict
// signature, then job ID), so Submits is ascending and the scan below is
// deterministic across the sharded and naive aggregation paths.
func anyInstanceReusable(g *repository.GroupStat, window time.Duration) bool {
	earliest := make(map[signature.Sig]time.Time)
	for i, strict := range g.SubmitStrict {
		t := g.Submits[i]
		if e, ok := earliest[strict]; !ok || t.Before(e) {
			earliest[strict] = t
		}
	}
	for i, strict := range g.SubmitStrict {
		if g.Submits[i].Sub(earliest[strict]) > window {
			return true
		}
	}
	return false
}

// dominantVC picks the VC with the most occurrences of the group: the first
// maximum in VCs' sorted order, so a tie goes to the smallest name.
func dominantVC(g *repository.GroupStat) string {
	best, bestN := "", -1
	for i, vc := range g.VCs {
		if g.VCOccs[i] > bestN {
			best, bestN = vc, g.VCOccs[i]
		}
	}
	return best
}

// buildJobGraph fills JobTemplates on each candidate and records the
// ancestor/descendant pairs among candidates that co-occur in a job.
func buildJobGraph(repo *repository.Repo, from, to time.Time, candidates []Candidate) *jobGraph {
	candIdx := make(map[signature.Sig]int, len(candidates))
	for i, c := range candidates {
		candIdx[c.Recurring] = i
	}
	graph := &jobGraph{covers: make(map[signature.Sig]map[signature.Sig]int)}
	templateSeen := make(map[signature.Sig]map[signature.Sig]bool)

	for _, j := range repo.JobsBetween(from, to) {
		for si, s := range j.Subexprs {
			ci, ok := candIdx[s.Recurring]
			if !ok {
				continue
			}
			// Job template membership.
			set, ok := templateSeen[s.Recurring]
			if !ok {
				set = make(map[signature.Sig]bool)
				templateSeen[s.Recurring] = set
			}
			if !set[j.Template] {
				set[j.Template] = true
				candidates[ci].JobTemplates = append(candidates[ci].JobTemplates, j.Template)
			}
			// Walk ancestors: any candidate above s covers this occurrence.
			seen := map[signature.Sig]bool{}
			p := j.Subexprs[si].Parent
			for p >= 0 {
				anc := j.Subexprs[p]
				if _, isCand := candIdx[anc.Recurring]; isCand && !seen[anc.Recurring] {
					seen[anc.Recurring] = true
					m, ok := graph.covers[anc.Recurring]
					if !ok {
						m = make(map[signature.Sig]int)
						graph.covers[anc.Recurring] = m
					}
					m[s.Recurring]++
				}
				p = anc.Parent
			}
		}
	}
	return graph
}

// greedySelect is the baseline: sort by utility density and take while budget
// allows.
func greedySelect(cands []Candidate, cfg SelectionConfig) []Candidate {
	sorted := append([]Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		di := sorted[i].Utility / float64(max(sorted[i].StorageCost, 1))
		dj := sorted[j].Utility / float64(max(sorted[j].StorageCost, 1))
		if di != dj {
			return di > dj
		}
		return sorted[i].Recurring < sorted[j].Recurring
	})
	var out []Candidate
	var used int64
	for _, c := range sorted {
		if cfg.StorageBudgetPerVC > 0 && used+c.StorageCost > cfg.StorageBudgetPerVC {
			continue
		}
		out = append(out, c)
		used += c.StorageCost
	}
	return out
}

// bigSubsSelect is the BigSubs-style interaction-aware selector, an
// approximation of the bipartite query/subexpression optimization of Jindal
// et al. [24] with deterministic rounding: a candidate's MARGINAL utility is
// its original utility scaled by the fraction of its occurrences NOT covered
// by a currently selected ancestor candidate (top-down matching always takes
// the largest materialized subexpression, so covered occurrences never read
// the inner view). The label assignment iterates to a fixpoint.
func bigSubsSelect(cands []Candidate, graph *jobGraph, cfg SelectionConfig) []Candidate {
	selected := make(map[signature.Sig]bool)
	// Start from the greedy solution.
	for _, c := range greedySelect(cands, cfg) {
		selected[c.Recurring] = true
	}

	for iter := 0; iter < 6; iter++ {
		adjusted := make([]Candidate, 0, len(cands))
		for _, c := range cands {
			covered := 0
			for anc, coverage := range graph.covers {
				if anc == c.Recurring || !selected[anc] {
					continue
				}
				if n := coverage[c.Recurring]; n > covered {
					covered = n
				}
			}
			uncovered := c.Frequency - covered
			if uncovered < 2 {
				continue // every reuse opportunity is subsumed by an ancestor
			}
			c.Utility *= float64(uncovered) / float64(c.Frequency)
			adjusted = append(adjusted, c)
		}
		next := greedySelect(adjusted, cfg)
		nextSet := make(map[signature.Sig]bool, len(next))
		for _, c := range next {
			nextSet[c.Recurring] = true
		}
		if setsEqual(selected, nextSet) {
			break
		}
		selected = nextSet
	}

	// Materialize the final set preserving original utilities.
	var out []Candidate
	for _, c := range cands {
		if selected[c.Recurring] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Utility > out[j].Utility })
	return out
}

func setsEqual(a, b map[signature.Sig]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
