package explain

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEnumClosedAndValid(t *testing.T) {
	all := AllReasons()
	if len(all) != 11 {
		t.Fatalf("AllReasons: want 11 reasons, got %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if !(all[i-1] < all[i]) {
			t.Fatalf("AllReasons not sorted: %q before %q", all[i-1], all[i])
		}
	}
	for _, r := range all {
		if !Valid(r) {
			t.Errorf("Valid(%q) = false for enum member", r)
		}
	}
	for _, bad := range []Reason{"", "Matched", "COST", "unsealed", "pending", "guard_quarantine"} {
		if Valid(bad) {
			t.Errorf("Valid(%q) = true for non-member", bad)
		}
	}
}

func TestOutcomeMapping(t *testing.T) {
	cases := map[Reason]Outcome{
		ReasonMatched:         OutcomeReused,
		ReasonPolicyFlight:    OutcomeDisabled,
		ReasonVCKilled:        OutcomeDisabled,
		ReasonFallback:        OutcomeFellBack,
		ReasonCost:            OutcomeRejected,
		ReasonExpired:         OutcomeRejected,
		ReasonNoAnnotation:    OutcomeRejected,
		ReasonLockHeld:        OutcomeRejected,
		ReasonGuardQuarantine: OutcomeRejected,
		ReasonBudget:          OutcomeRejected,
		ReasonNotMaterialized: OutcomeRejected,
	}
	for r, want := range cases {
		if got := OutcomeFor(r); got != want {
			t.Errorf("OutcomeFor(%s) = %s, want %s", r, got, want)
		}
	}
	if ReasonMatched.IsMiss() {
		t.Error("matched must not count as a miss")
	}
	if !ReasonCost.IsMiss() {
		t.Error("cost must count as a miss")
	}
}

func TestReasonForState(t *testing.T) {
	cases := map[string]Reason{
		"expired":  ReasonExpired,
		"pending":  ReasonNotMaterialized,
		"unsealed": ReasonNotMaterialized,
		"sealing":  ReasonNotMaterialized,
		"absent":   ReasonNotMaterialized,
	}
	for state, want := range cases {
		if got := ReasonForState(state); got != want {
			t.Errorf("ReasonForState(%q) = %s, want %s", state, got, want)
		}
	}
}

func TestRecorderStampsAndOrders(t *testing.T) {
	r := NewRecorder("job-1", "vc-a")
	r.Record("sig1", "Join", ReasonCost, -3, "")
	r.Record("", "", ReasonPolicyFlight, 0, DetailControlVC)
	r.Record("sig2", "Agg", ReasonMatched, 12.5, "")
	ds := r.Decisions()
	if len(ds) != 3 || r.Len() != 3 {
		t.Fatalf("want 3 decisions, got %d (Len %d)", len(ds), r.Len())
	}
	for i, d := range ds {
		if d.Seq != i+1 {
			t.Errorf("decision %d: Seq = %d, want %d", i, d.Seq, i+1)
		}
		if d.JobID != "job-1" || d.VC != "vc-a" {
			t.Errorf("decision %d: identity not stamped: %+v", i, d)
		}
		if d.Outcome != OutcomeFor(d.Reason) {
			t.Errorf("decision %d: outcome %s inconsistent with reason %s", i, d.Outcome, d.Reason)
		}
	}
	// Decisions() is a copy: mutating it must not affect the recorder.
	ds[0].Reason = ReasonBudget
	if got := r.Decisions()[0].Reason; got != ReasonCost {
		t.Errorf("Decisions() aliases internal state: %s", got)
	}

	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Reset: want 0 decisions, got %d", r.Len())
	}
	r.Record("sig3", "", ReasonExpired, 1, "")
	if got := r.Decisions()[0].Seq; got != 1 {
		t.Errorf("Seq must restart at 1 after Reset, got %d", got)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record("s", "c", ReasonCost, 0, "")
	r.Reset()
	r.ForEach(func(Decision) { t.Error("ForEach on nil recorder must not visit") })
	if r.Len() != 0 || r.Decisions() != nil {
		t.Error("nil recorder must report empty state")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("job-c", "vc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Record("s", "", ReasonNoAnnotation, 0, "")
			}
		}()
	}
	wg.Wait()
	ds := r.Decisions()
	if len(ds) != 800 {
		t.Fatalf("want 800 decisions, got %d", len(ds))
	}
	for i, d := range ds {
		if d.Seq != i+1 {
			t.Fatalf("seq gap at %d: %d", i, d.Seq)
		}
	}
}

func TestRenderDecisionsDeterministic(t *testing.T) {
	r := NewRecorder("job-7", "vc-b")
	r.Record("sigA", "HashJoin", ReasonMatched, 40, "")
	r.Record("sigB", "Agg", ReasonExpired, 7.5, "")
	r.Record("sigC", "", ReasonNoAnnotation, 0, "")
	out := RenderDecisions("job-7", r.Decisions())
	if out != RenderDecisions("job-7", r.Decisions()) {
		t.Fatal("render not deterministic")
	}
	for _, want := range []string{"explain job-7: 3 decisions", "matched", "expired", "no-annotation",
		"by reason: expired=1 matched=1 no-annotation=1", "banked=40.00 forfeited=7.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDecisionJSONRoundTrip(t *testing.T) {
	d := Decision{Sig: "s", VC: "v", JobID: "j", Candidate: "Agg",
		Outcome: OutcomeRejected, Reason: ReasonLockHeld, SavedCS: 1.5, Detail: "x", Seq: 2}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Decision
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("round trip mismatch: %+v != %+v", back, d)
	}
}

func TestPolicyDetailConstants(t *testing.T) {
	for level, want := range map[string]string{
		"service": DetailControlService,
		"cluster": DetailControlCluster,
		"vc":      DetailControlVC,
		"job":     DetailControlJob,
		"":        DetailNoInsights,
	} {
		if got := PolicyDetail(level); got != want {
			t.Errorf("PolicyDetail(%q) = %q, want %q", level, got, want)
		}
	}
}

// TestRecordWarmPathAllocatesNothing is the deterministic half of the
// observability-budget regression (the benchmark arm is the statistical
// half): once a job's decision buffer is warm, recording a decision must not
// allocate — the hot submission path pays one branch and one append into
// existing capacity. Detail strings are package constants for the same
// reason.
func TestRecordWarmPathAllocatesNothing(t *testing.T) {
	rec := NewRecorder("job-warm", "vc")
	for i := 0; i < 64; i++ {
		rec.Record("sig", "Join", ReasonNoAnnotation, 0, "")
	}
	rec.Reset() // keeps capacity, like a retry
	allocs := testing.AllocsPerRun(64, func() {
		rec.Record("sig", "Join", ReasonNoAnnotation, 0, DetailSelectedNotBuilt)
		if rec.Len() > 32 {
			rec.Reset()
		}
	})
	if allocs > 0 {
		t.Errorf("warm Record allocates %.1f times per call, want 0", allocs)
	}
}

var jobSink *Job

// TestJobIsOneAllocation: a job's record holds its trace and its decisions,
// with room inside for 16 spans, 1 event and 3 decisions, so a job that
// records no more than that costs one allocation, and each slice that
// outgrows its room costs one more.
func TestJobIsOneAllocation(t *testing.T) {
	epoch := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		spans, events, decisions int
		want                     float64
	}{
		{0, 0, 0, 1},
		{16, 1, 3, 1},
		{17, 1, 3, 2},
		{16, 2, 3, 2},
		{16, 1, 4, 2},
	} {
		got := testing.AllocsPerRun(50, func() {
			job := NewJob("job", "vc", epoch)
			for i := 0; i < c.spans; i++ {
				job.Trace().Span("execute:stage-00", time.Second)
			}
			for i := 0; i < c.events; i++ {
				job.Trace().Event("view.proposed", "sig=x")
			}
			for i := 0; i < c.decisions; i++ {
				job.Recorder().Record("sig", "Join", ReasonMatched, 1, "")
			}
			jobSink = job
		})
		if got != c.want {
			t.Errorf("%d spans, %d events, %d decisions: %.0f allocs, want %.0f",
				c.spans, c.events, c.decisions, got, c.want)
		}
	}
	ds := jobSink.Recorder().Decisions()
	if len(ds) != 4 || ds[3].Seq != 4 || ds[3].JobID != "job" || ds[3].VC != "vc" || ds[3].Outcome != OutcomeReused {
		t.Errorf("decisions read back from the record: %+v", ds)
	}
	if tr := jobSink.Trace(); tr.JobID != "job" || len(tr.Spans()) != 16 || len(tr.Events()) != 1 {
		t.Errorf("trace read back from the record: %s", tr.Render())
	}
}

// TestNilJobIsObservabilityOff: a nil record hands out nil halves, and every
// method on them is a no-op.
func TestNilJobIsObservabilityOff(t *testing.T) {
	var job *Job
	if job.Trace() != nil || job.Recorder() != nil {
		t.Fatal("a nil record must hand out nil halves")
	}
	job.Trace().Span("parse", time.Second)
	job.Recorder().Record("sig", "Join", ReasonCost, 1, "")
	if job.Trace().Spans() != nil || job.Recorder().Len() != 0 {
		t.Error("recording into a nil record must be a no-op")
	}
}
