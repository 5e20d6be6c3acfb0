package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudviews"
	"cloudviews/internal/data"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		tail float64
	}{
		{n: 100000, want: 99, tail: 99}, // never above the workload's percentile
		{n: 1000, want: 99, tail: 99},   // exactly ten beyond
		{n: 999, want: 99, tail: 95},
		{n: 60, want: 80, tail: 80},
		{n: 49, want: 80, tail: 75},
		{n: 40, want: 75, tail: 75},
		{n: 39, want: 75, tail: 50},
		{n: 5, want: 99, tail: 50},
	} {
		if got := tailPercentile(tc.n, tc.want); got != tc.tail {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.tail)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for p, want := range map[float64]int64{50: 50, 75: 80, 99: 100, 10: 10, 1: 10} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestSegmentMedianIgnoresABurst(t *testing.T) {
	// Ten one-second segments at 100 ops/s, except that a stall empties the
	// fourth and the work lands in the fifth.
	var ops []interval
	for seg := 0; seg < 10; seg++ {
		n := 100
		switch seg {
		case 3:
			n = 0
		case 4:
			n = 200
		}
		for i := 0; i < n; i++ {
			at := int64(seg)*1e9 + int64(i)*1e6
			ops = append(ops, interval{start: at, end: at + 1e5, jobs: 1})
		}
	}
	rates := segmentRates(ops, 10e9, 10)
	if len(rates) != 10 || rates[3] != 0 || rates[4] != 200 || rates[0] != 100 {
		t.Fatalf("rates = %v", rates)
	}
	if got := median(rates); got != 100 {
		t.Errorf("median of segment rates = %v, want 100", got)
	}
	// An op that spans segments counts in each for its share: a day cycle of
	// 80 jobs running from 0.5 s to 2.5 s gives 20, 40 and 20.
	got := segmentRates([]interval{{start: 5e8, end: 25e8, jobs: 80}}, 3e9, 3)
	for i, want := range []float64{20, 40, 20} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("spread rates = %v, want [20 40 20]", got)
			break
		}
	}
}

// lat_tail_ratio exists because a slower machine moves every percentile
// alike: the same run with every latency half as long again reports the same
// ratio.
func TestTailRatioIgnoresMachineSpeed(t *testing.T) {
	d := workloadDef{tail: 95}
	run := func(scale int64) map[string]metric {
		lr := loopResult{wall: 10 * time.Second}
		for i := 0; i < 4000; i++ {
			at := int64(i) * int64(10*time.Second) / 4000
			lat := (100 + int64(i*7919%1000)) * 1000 * scale / 2
			lr.samples = append(lr.samples, sample{start: at, end: at + lat, lat: lat, jobs: 1})
		}
		m, _ := finish(d, 1, lr, procStats{}, procStats{}, []float64{1})
		return m
	}
	slow, fast := run(3), run(2)
	if r := slow["loop.lat_p50_us"].Value / fast["loop.lat_p50_us"].Value; math.Abs(r-1.5) > 1e-9 {
		t.Errorf("median latency moved by %v, want 1.5", r)
	}
	want := fast["loop.lat_tail_us"].Value / fast["loop.lat_p50_us"].Value
	if got := fast["lat_tail_ratio"].Value; got != want || got <= 1 {
		t.Errorf("lat_tail_ratio = %v, want tail over median = %v", got, want)
	}
	if a, b := slow["lat_tail_ratio"].Value, fast["lat_tail_ratio"].Value; math.Abs(a-b) > 1e-9 {
		t.Errorf("lat_tail_ratio %v on the slow machine, %v on the fast one", a, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
}

func TestContributionArithmetic(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	var spans []span
	for i, id := range []string{"a", "b"} {
		off := us(int64(i) * 1000)
		spans = append(spans,
			span{Trace: id, Span: rootSpan, Start: off, End: off + us(100)},
			// A probe that the real path runs on half of the ops.
			span{Trace: id, Span: "optimizer.compile", Parent: rootSpan, Start: off + us(200), End: off + us(260)},
			// A probe that runs once per op, with a real span inside it seen on
			// one op out of two.
			span{Trace: id, Span: "exec.run", Parent: rootSpan, Start: off + us(300), End: off + us(320)},
		)
	}
	spans = append(spans, span{Trace: "a", Span: "storage.fetch", Parent: "exec.run", Start: us(305), End: us(313)})
	rows := make(map[string]contribution)
	for _, c := range contributions(spans, map[string]float64{"runs.optimizer.compile": 0.5}) {
		rows[c.name] = c
	}
	check := func(name string, runs, total, self float64) {
		t.Helper()
		c := rows[name]
		if math.Abs(c.runs-runs) > 1e-9 || math.Abs(c.totalUs-total) > 1e-9 || math.Abs(c.selfUs-self) > 1e-9 {
			t.Errorf("%s: runs %v total %v self %v; want %v %v %v", name, c.runs, c.totalUs, c.selfUs, runs, total, self)
		}
	}
	check("optimizer.compile", 0.5, 30, 30)
	check("storage.fetch", 0.5, 4, 4)
	check("exec.run", 1, 20, 16)
	// What no probe accounts for: 100 − 30 − 20.
	check(rootSpan, 1, 100, 50)
	if layerOf("storage.fetch") != "storage" {
		t.Errorf("layerOf(storage.fetch) = %q", layerOf("storage.fetch"))
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace.jsonl")
	spans := []span{
		{Trace: "r-1", Span: rootSpan, Layer: rootSpan, Start: 1, End: 9},
		{Trace: "r-1", Span: "plan.bind", Parent: rootSpan, Layer: "plan", Start: 10, End: 12},
	}
	counters := map[string]float64{"runs.plan.bind": 0.2}
	if err := writeTrace(path, spans, counters); err != nil {
		t.Fatal(err)
	}
	gotSpans, gotCounters, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSpans) != 2 || gotSpans[1] != spans[1] || gotCounters["runs.plan.bind"] != 0.2 {
		t.Errorf("round trip: %+v %v", gotSpans, gotCounters)
	}
	var buf bytes.Buffer
	renderTable(&buf, "x", gotSpans, gotCounters)
	if !strings.Contains(buf.String(), "| plan.bind | op | 1 |") {
		t.Errorf("table lacks the probe row:\n%s", buf.String())
	}
}

func TestAnswerDiff(t *testing.T) {
	tab := func(rows ...data.Row) *data.Table {
		t := data.NewTable(data.Schema{{Name: "k", Kind: data.KindString}, {Name: "v", Kind: data.KindFloat}})
		for _, r := range rows {
			t.Append(r)
		}
		return t
	}
	row := func(k string, v float64) data.Row { return data.Row{data.String_(k), data.Float(v)} }
	base := tableAnswer(tab(row("eu", 2048.1886380670458), row("us", 1719.833670452918)), -1)

	// Another row order and a sum taken in another order are the same answer.
	same := tableAnswer(tab(row("us", 1719.8336704529193), row("eu", 2048.188638067047)), -1)
	if err := same.diff(base); err != nil {
		t.Errorf("reordered rows with last-digit float noise differ: %v", err)
	}
	for name, other := range map[string]answer{
		"a changed value": tableAnswer(tab(row("eu", 2048.19), row("us", 1719.833670452918)), -1),
		"a changed key":   tableAnswer(tab(row("eu", 2048.1886380670458), row("uk", 1719.833670452918)), -1),
		"a missing row":   tableAnswer(tab(row("eu", 2048.1886380670458)), -1),
	} {
		if err := other.diff(base); err == nil {
			t.Errorf("%s went unnoticed", name)
		}
	}
	// Past the inline limit only the count speaks.
	big := tableAnswer(tab(row("a", 1), row("b", 2), row("c", 3)), 2)
	if big.rows != 3 || big.cells != nil {
		t.Errorf("limited answer = %+v", big)
	}
	if err := big.diff(answer{rows: 3}); err != nil {
		t.Errorf("count-only answers differ: %v", err)
	}
	if err := big.diff(answer{rows: 4}); err == nil {
		t.Error("a different row count went unnoticed")
	}
}

func TestRequestMixIsSeededAndProportioned(t *testing.T) {
	var n [3]int
	for i := 0; i < 20000; i++ {
		k := kindOf(7, i)
		if k != kindOf(7, i) {
			t.Fatal("kindOf is not a function of (seed, i)")
		}
		n[k]++
	}
	if math.Abs(float64(n[kindAdhoc])/20000-adhocShare/100.0) > 0.01 || math.Abs(float64(n[kindAsync])/20000-asyncShare/100.0) > 0.01 {
		t.Errorf("mix = %v, want %d%% ad hoc and %d%% async", n, adhocShare, asyncShare)
	}
}

func TestWireBody(t *testing.T) {
	at := dayStart(5)
	w, err := newWireJob(cloudviews.Job{
		ID: "r-9", Submit: at.Add(time.Hour), VC: "bench-vc00", Script: "r = SELECT 1;",
		Params: wireParams(map[string]cloudviews.Value{"cutoff": data.Time(at)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var req struct {
		ID         string             `json:"id"`
		Script     string             `json:"script"`
		Params     map[string]float64 `json:"params"`
		Async      bool               `json:"async"`
		SubmitUnix int64              `json:"submit_unix"`
	}
	if err := json.Unmarshal(w.body(true), &req); err != nil {
		t.Fatal(err)
	}
	if req.ID != "r-9" || !req.Async || req.SubmitUnix != at.Add(time.Hour).Unix() || req.Script == "" {
		t.Errorf("decoded body = %+v", req)
	}
	// A day boundary in nanoseconds survives the trip through a float64.
	if int64(req.Params["cutoff"]) != at.UnixNano() {
		t.Errorf("cutoff = %v, want %d", req.Params["cutoff"], at.UnixNano())
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the program's metric tables in
// step: the driver reads one, the program prints the other.
func TestSpecMatchesCode(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), code has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s %s, code has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s %s, code has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, spec, map[string]any{
		"workloads": []map[string]string{{"name": "reuse_warm"}},
		"end_to_end": []map[string]any{
			{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
			{"name": "lat_p50_us", "unit": "us", "better": "lower", "bound": 0.10},
		},
	})
	set := func(name string, failed int, jobs ...float64) string {
		d := filepath.Join(dir, name)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, v := range jobs {
			r := result{Workload: "reuse_warm", Seed: uint64(i + 1), Attempted: 100, Failed: failed, Metrics: map[string]metric{
				"jobs_per_s": {Value: v, Unit: "1/s"}, "lat_p50_us": {Value: 1e6 / v, Unit: "us"},
			}}
			writeJSON(t, filepath.Join(d, resultName(r)), r)
		}
		return d
	}
	base := set("base", 0, 1000, 1010, 990)
	for _, tc := range []struct {
		name string
		dir  string
		ok   bool
	}{
		{"the same numbers", set("same", 0, 1005, 1000, 995), true},
		{"an improvement", set("faster", 0, 1500, 1500, 1500), true},
		{"eight percent worse, inside the bound", set("slower8", 0, 920, 920, 920), true},
		{"twenty percent worse", set("slower20", 0, 800, 800, 800), false},
		{"a new failure", set("failing", 1, 1000, 1000, 1000), false},
	} {
		var buf bytes.Buffer
		ok, err := compareDirs(&buf, spec, base, tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: passed = %v, want %v\n%s", tc.name, ok, tc.ok, buf.String())
		}
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size: setup,
// the measured loop, answer checking and the trace writer all execute, at
// whatever GOMAXPROCS the tests run under. The smoke run of serve_mixed keeps
// the server in this process.
func TestSmoke(t *testing.T) {
	for _, d := range workloads {
		for _, trace := range []bool{false, true} {
			name := d.name + "/e2e"
			if trace {
				name = d.name + "/layers"
			}
			t.Run(name, func(t *testing.T) {
				c := runCfg{seed: 3, seconds: 30, trace: trace, smoke: true, outDir: t.TempDir()}
				var buf bytes.Buffer
				if err := runWorkloads(&buf, c, d.name); err != nil {
					t.Fatalf("%v\n%s", err, buf.String())
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var line struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct %v, failed %d of %d", line.Correct, line.Failed, line.Attempted)
				}
				defs := metricDefs(trace)
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result line, want %d", len(line.Metrics), len(defs))
				}
				if strings.Contains(buf.String(), " missing ") {
					t.Errorf("a metric was not populated:\n%s", buf.String())
				}
				if !trace {
					for _, m := range defs {
						// A hundred ops retain less than the collector's own
						// noise, so only the sign of that one is not checked.
						if v := line.Metrics[m.name].Value; !(v > 0) && m.name != "retained_b_per_job" {
							t.Errorf("%s = %v, want > 0", m.name, v)
						}
					}
					return
				}
				spans, counters, err := readTrace(filepath.Join(c.outDir, d.name+".trace.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if len(spans) == 0 || len(counters) == 0 {
					t.Errorf("trace file holds %d spans and %d counters", len(spans), len(counters))
				}
				renderTable(io.Discard, d.name, spans, counters)
			})
		}
	}
}

// TestProbesLeaveNoResidue runs the same ops through a traced and an untraced
// pass of reuse_warm and compares the live systems afterwards: probes write
// only to instances they own, and undo the one thing a compile probe can
// stage.
func TestProbesLeaveNoResidue(t *testing.T) {
	cfg := worldCfg{seed: 5, onboard: true, size: smokeSize}
	c := &runCfg{seed: 5, smoke: true}
	ref, err := newReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.cook(smokeSize.primeDays + 1); err != nil {
		t.Fatal(err)
	}
	state := func(traced bool) map[string]float64 {
		w, err := setupWarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			tp, err := tracedJobs(c, w, ref, 2, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if tp.attempted != smokeOps || tp.failed != 0 {
				t.Fatalf("traced pass ran %d ops (want %d), %d failed", tp.attempted, smokeOps, tp.failed)
			}
		} else {
			lr := runClosed(2, time.Minute, c.maxOps(), func(_, i int) (int, time.Duration, error) {
				_, err := w.sys.SubmitScript(w.stream.job(i))
				return 1, 0, err
			})
			if lr.failed != 0 || len(lr.samples) != smokeOps {
				t.Fatalf("untraced pass: %d ok, %d failed", len(lr.samples), lr.failed)
			}
		}
		rd := readSystem(w.sys, false)
		out := make(map[string]float64)
		for _, k := range []string{"bench.views_live", "bench.locks", "bench.repo_records", "cloudviews_views_built_total", "cloudviews_views_reused_total"} {
			out[k] = rd.Counters[k]
		}
		return out
	}
	plain, traced := state(false), state(true)
	for k, want := range plain {
		if traced[k] != want {
			t.Errorf("%s: %v after a traced pass, %v after an untraced one", k, traced[k], want)
		}
	}
	if plain["cloudviews_views_reused_total"] == 0 {
		t.Error("the pass reused no view, so the comparison shows nothing")
	}
}
