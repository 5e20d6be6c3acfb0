package lineage_test

import (
	"fmt"
	"testing"
	"time"

	"cloudviews/internal/lineage"
	"cloudviews/internal/repository"
	"cloudviews/internal/signature"
)

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

func scanJob(r *repository.Repo, id, pipeline string, datasets ...string) {
	rec := &repository.JobRecord{
		JobID: id, Cluster: "c", VC: "vc", Pipeline: pipeline,
		Template: signature.Sig("t-" + pipeline), Submit: t0, Start: t0, End: t0.Add(time.Minute),
	}
	for i, ds := range datasets {
		rec.Subexprs = append(rec.Subexprs, repository.SubexprRecord{
			JobID: id, Op: "Scan",
			Strict: signature.Sig(fmt.Sprintf("s-%s-%d", id, i)), Recurring: signature.Sig("r-" + ds),
			InputDatasets: []string{ds}, Parent: -1, Eligible: signature.IneligibleTrivial,
		})
	}
	r.Add(rec)
}

func buildWorld(t *testing.T) *lineage.Graph {
	t.Helper()
	r := repository.New()
	// cook writes Cooked (declared via producers map); three consumers read
	// it; one consumer also reads Raw directly.
	scanJob(r, "cook1", "cook", "Raw")
	scanJob(r, "a1", "pipeA", "Cooked")
	scanJob(r, "a2", "pipeA", "Cooked")
	scanJob(r, "b1", "pipeB", "Cooked")
	scanJob(r, "c1", "pipeC", "Cooked", "Raw")
	return lineage.Build(r, t0, t0.AddDate(0, 0, 1), map[string]string{"Cooked": "cook"})
}

func TestGraphStructure(t *testing.T) {
	g := buildWorld(t)
	cooked := g.Datasets["Cooked"]
	if cooked == nil {
		t.Fatal("Cooked missing")
	}
	if cooked.Producer != "cook" {
		t.Errorf("producer = %q", cooked.Producer)
	}
	if len(cooked.Consumers) != 3 {
		t.Errorf("consumers = %v", cooked.Consumers)
	}
	if cooked.Reads != 4 {
		t.Errorf("reads = %d, want 4 (a1,a2,b1,c1)", cooked.Reads)
	}
	raw := g.Datasets["Raw"]
	if raw.Producer != "" {
		t.Errorf("raw producer = %q, want ingested", raw.Producer)
	}
}

func TestPipelineDeps(t *testing.T) {
	g := buildWorld(t)
	for _, p := range []string{"pipeA", "pipeB", "pipeC"} {
		deps := g.PipelineDeps[p]
		if len(deps) != 1 || deps[0] != "cook" {
			t.Errorf("%s deps = %v", p, deps)
		}
	}
	if len(g.PipelineDeps["cook"]) != 0 {
		t.Errorf("cook deps = %v", g.PipelineDeps["cook"])
	}
}

func TestDependentShare(t *testing.T) {
	g := buildWorld(t)
	// 3 of 4 pipelines depend on another pipeline's output (cook reads only
	// ingested data).
	got := g.DependentShare()
	if got < 0.74 || got > 0.76 {
		t.Errorf("dependent share = %g, want 0.75", got)
	}
}

func TestRecommendations(t *testing.T) {
	g := buildWorld(t)
	recs := g.RecommendPhysicalDesigns(3)
	if len(recs) != 1 {
		t.Fatalf("recommendations = %+v", recs)
	}
	if recs[0].Dataset != "Cooked" || recs[0].Producer != "cook" || recs[0].Consumers != 3 {
		t.Errorf("rec = %+v", recs[0])
	}
	// Raising the threshold filters it out.
	if recs := g.RecommendPhysicalDesigns(4); len(recs) != 0 {
		t.Errorf("threshold ignored: %+v", recs)
	}
}

func TestEdgesSortedAndCounted(t *testing.T) {
	g := buildWorld(t)
	if len(g.Edges) != 5 { // (Cooked×3 pipelines) + (Raw×cook) + (Raw×pipeC)
		t.Fatalf("edges = %d: %+v", len(g.Edges), g.Edges)
	}
	for i := 1; i < len(g.Edges); i++ {
		a, b := g.Edges[i-1], g.Edges[i]
		if a.Dataset > b.Dataset || (a.Dataset == b.Dataset && a.Consumer > b.Consumer) {
			t.Fatal("edges not sorted")
		}
	}
	for _, e := range g.Edges {
		if e.Dataset == "Cooked" && e.Consumer == "pipeA" && e.Reads != 2 {
			t.Errorf("pipeA reads = %d, want 2", e.Reads)
		}
	}
}
