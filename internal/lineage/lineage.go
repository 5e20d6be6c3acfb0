// Package lineage surfaces data and job dependencies from the workload
// repository (paper §5.2: "surfacing data and job dependencies for
// interesting pipeline optimizations", and §5.6 "Pipeline Optimization": the
// producer of a dataset should create the physical design its consumers
// need). It builds the producer → dataset → consumer graph and recommends
// which producers should tailor their outputs.
package lineage

import (
	"sort"
	"time"

	"cloudviews/internal/repository"
)

// Edge is one dataset dependency: a pipeline consumes a dataset.
type Edge struct {
	Dataset  string
	Consumer string // pipeline
	// Reads counts job instances that scanned the dataset.
	Reads int
}

// DatasetNode aggregates one dataset's role in the graph.
type DatasetNode struct {
	Name     string
	Producer string // pipeline that writes it via the dataset: scheme ("" = ingested)
	// Consumers are distinct downstream pipelines.
	Consumers []string
	Reads     int
}

// Graph is the dependency graph over a window.
type Graph struct {
	Datasets map[string]*DatasetNode
	Edges    []Edge
	// PipelineDeps maps a pipeline to the producer pipelines it depends on.
	PipelineDeps map[string][]string
}

// Build scans the repository window and assembles the graph. Producers are
// identified by cooking jobs' `dataset:` output targets recorded as the
// dataset's producer pipeline in job records whose subexpressions carry no
// better marker — so Build accepts an explicit producer mapping (dataset →
// pipeline) that callers take from the catalog.
func Build(repo *repository.Repo, from, to time.Time, producers map[string]string) *Graph {
	g := &Graph{
		Datasets:     make(map[string]*DatasetNode),
		PipelineDeps: make(map[string][]string),
	}
	type key struct{ ds, consumer string }
	edges := make(map[key]*Edge)
	consumers := make(map[string]map[string]bool)

	for _, j := range repo.JobsBetween(from, to) {
		for _, s := range j.Subexprs {
			if s.Op != "Scan" {
				continue
			}
			for _, ds := range s.InputDatasets {
				node, ok := g.Datasets[ds]
				if !ok {
					node = &DatasetNode{Name: ds, Producer: producers[ds]}
					g.Datasets[ds] = node
					consumers[ds] = make(map[string]bool)
				}
				node.Reads++
				consumers[ds][j.Pipeline] = true
				k := key{ds, j.Pipeline}
				e, ok := edges[k]
				if !ok {
					e = &Edge{Dataset: ds, Consumer: j.Pipeline}
					edges[k] = e
				}
				e.Reads++
			}
		}
	}
	for ds, set := range consumers {
		node := g.Datasets[ds]
		for c := range set {
			node.Consumers = append(node.Consumers, c)
			if node.Producer != "" && c != node.Producer {
				g.PipelineDeps[c] = append(g.PipelineDeps[c], node.Producer)
			}
		}
		sort.Strings(node.Consumers)
	}
	for c := range g.PipelineDeps {
		deps := g.PipelineDeps[c]
		sort.Strings(deps)
		g.PipelineDeps[c] = dedupe(deps)
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, *e)
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i].Dataset != g.Edges[j].Dataset {
			return g.Edges[i].Dataset < g.Edges[j].Dataset
		}
		return g.Edges[i].Consumer < g.Edges[j].Consumer
	})
	return g
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// DependentShare reports the fraction of (non-cooking) pipelines that depend
// on at least one other pipeline's output — the paper's "80% of the jobs
// depend on at least one other job" statistic.
func (g *Graph) DependentShare() float64 {
	pipelines := map[string]bool{}
	for _, e := range g.Edges {
		pipelines[e.Consumer] = true
	}
	if len(pipelines) == 0 {
		return 0
	}
	dependent := 0
	for p := range pipelines {
		if len(g.PipelineDeps[p]) > 0 {
			dependent++
		}
	}
	return float64(dependent) / float64(len(pipelines))
}

// Recommendation advises a producer pipeline to tailor its output's physical
// design for heavy downstream demand (§5.6 Pipeline Optimization).
type Recommendation struct {
	Dataset   string
	Producer  string
	Consumers int
	Reads     int
}

// RecommendPhysicalDesigns returns producers whose outputs are consumed by at
// least minConsumers distinct pipelines, ordered by read pressure.
func (g *Graph) RecommendPhysicalDesigns(minConsumers int) []Recommendation {
	if minConsumers <= 0 {
		minConsumers = 3
	}
	var out []Recommendation
	for _, node := range g.Datasets {
		if node.Producer == "" || len(node.Consumers) < minConsumers {
			continue
		}
		out = append(out, Recommendation{
			Dataset:   node.Name,
			Producer:  node.Producer,
			Consumers: len(node.Consumers),
			Reads:     node.Reads,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Reads != out[j].Reads {
			return out[i].Reads > out[j].Reads
		}
		return out[i].Dataset < out[j].Dataset
	})
	return out
}
