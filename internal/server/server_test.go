package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews"
	"cloudviews/internal/data"
	"cloudviews/internal/plan"
	"cloudviews/internal/telemetry"
)

const testScript = `r = SELECT Region, COUNT(*) AS n FROM Events GROUP BY Region;
OUTPUT r TO "out/r";`

// fakeClock is a hand-driven wall clock for deterministic rate-limit tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestSystem(t testing.TB) *cloudviews.System {
	t.Helper()
	sys, err := cloudviews.NewSystem(cloudviews.Config{ClusterName: "srv-test", Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	schema := cloudviews.Schema{
		{Name: "Id", Kind: cloudviews.KindInt},
		{Name: "Region", Kind: cloudviews.KindString},
		{Name: "Value", Kind: cloudviews.KindFloat},
	}
	if err := sys.DefineDataset("Events", schema); err != nil {
		t.Fatal(err)
	}
	tb := &cloudviews.Table{Schema: schema}
	regions := []string{"us", "eu", "asia"}
	for i := 0; i < 120; i++ {
		tb.Append(cloudviews.Row{
			cloudviews.Int(int64(i)),
			cloudviews.String(regions[i%3]),
			cloudviews.Float(float64(i % 41)),
		})
	}
	if err := sys.PublishDataset("Events", tb); err != nil {
		t.Fatal(err)
	}
	return sys
}

// newTestServer builds a server over a demo system and mounts it on an
// httptest server. mutate adjusts the config before construction.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		System:     newTestSystem(t),
		Tokens:     map[string]string{"tok-1": "vc1", "tok-2": "vc2"},
		AdminToken: "tok-admin",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown()
	})
	return srv, ts
}

// saturate holds every admission slot vc can claim, so each of its
// submissions queue-sheds until the returned release gives them back.
func saturate(srv *Server, vc string) (release func()) {
	held := 0
	for srv.adm.tryAcquire(vc) {
		held++
	}
	return func() {
		for ; held > 0; held-- {
			srv.adm.release(vc)
		}
	}
}

// do issues one JSON request and decodes the response into out (skipped
// when out is nil). Returns the status code and raw body.
func do(t testing.TB, client *http.Client, method, url, token string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s response (%d): %v\n%s", method, url, resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode, raw
}

func TestAuth(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()

	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "", SubmitRequest{Script: testScript}, nil); code != 401 {
		t.Errorf("no token: code = %d, want 401", code)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "nope", SubmitRequest{Script: testScript}, nil); code != 401 {
		t.Errorf("bad token: code = %d, want 401", code)
	}
	// Tenant tokens cannot cross VCs or reach admin endpoints.
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{VC: "vc2", Script: testScript}, nil); code != 403 {
		t.Errorf("cross-VC submit: code = %d, want 403", code)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/admin/vcs/vc1/onboard", "tok-1", nil, nil); code != 403 {
		t.Errorf("tenant on admin endpoint: code = %d, want 403", code)
	}
	// The admin can submit on a tenant's behalf but must name the VC.
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-admin", SubmitRequest{Script: testScript}, nil); code != 400 {
		t.Errorf("admin submit without vc: code = %d, want 400", code)
	}
	var st JobStatusResponse
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-admin", SubmitRequest{VC: "vc1", Script: testScript}, &st); code != 200 {
		t.Errorf("admin submit for vc1: code = %d, want 200", code)
	}
}

func TestSyncSubmit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()

	var st JobStatusResponse
	code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript}, &st)
	if code != 200 {
		t.Fatalf("code = %d, want 200", code)
	}
	if st.Status != "done" || st.VC != "vc1" || st.ID == "" {
		t.Fatalf("status = %+v", st)
	}
	if st.Result == nil || st.Result.Rows != 3 {
		t.Fatalf("result = %+v, want 3 rows", st.Result)
	}

	// Poll it back with rendered rows.
	var got JobStatusResponse
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID+"?rows=10", "tok-1", nil, &got); code != 200 {
		t.Fatalf("poll code = %d", code)
	}
	if got.Status != "done" || len(got.Result.Data) != 3 || len(got.Result.Columns) != 2 {
		t.Fatalf("poll = %+v", got)
	}

	// The other tenant cannot see it.
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID, "tok-2", nil, nil); code != 404 {
		t.Errorf("cross-tenant poll code = %d, want 404", code)
	}
	// The admin can.
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID, "tok-admin", nil, nil); code != 200 {
		t.Errorf("admin poll code = %d, want 200", code)
	}

	// Script errors are 422 (accepted, failed), malformed requests 400.
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: "garbage"}, nil); code != 422 {
		t.Errorf("bad script code = %d, want 422", code)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{}, nil); code != 400 {
		t.Errorf("empty script code = %d, want 400", code)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1",
		SubmitRequest{Script: testScript, Params: map[string]any{"x": []any{1.0}}}, nil); code != 400 {
		t.Errorf("bad param type code = %d, want 400", code)
	}
}

func TestAsyncSubmitAndTrace(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()

	var st JobStatusResponse
	code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript, Async: true}, &st)
	if code != 202 {
		t.Fatalf("code = %d, want 202", code)
	}
	if st.Status != "queued" || st.ID == "" {
		t.Fatalf("status = %+v", st)
	}

	var got JobStatusResponse
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID+"?wait=1&rows=5", "tok-1", nil, &got); code != 200 {
		t.Fatalf("wait code = %d", code)
	}
	if got.Status != "done" || got.Result == nil || got.Result.Rows != 3 {
		t.Fatalf("waited = %+v", got)
	}

	code, raw := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID+"/trace", "tok-1", nil, nil)
	if code != 200 {
		t.Fatalf("trace code = %d: %s", code, raw)
	}
	if !bytes.Contains(raw, []byte("execute")) {
		t.Errorf("trace missing execute span:\n%s", raw)
	}
}

func TestRateLimitSheds(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Rate = 1 // 1 submission/sec
		cfg.Burst = 2
		cfg.now = clock.now
	})
	c := ts.Client()

	submit := func() (int, []byte) {
		return do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript}, nil)
	}
	// Burst of 2 admitted, third shed.
	for i := 0; i < 2; i++ {
		if code, raw := submit(); code != 200 {
			t.Fatalf("burst submit %d: code = %d: %s", i, code, raw)
		}
	}
	code, raw := submit()
	if code != 429 {
		t.Fatalf("over-rate code = %d, want 429: %s", code, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Reason != "rate" {
		t.Fatalf("shed response = %s", raw)
	}
	if er.RetryAfterSec <= 0 {
		t.Errorf("retry_after_sec = %v, want > 0", er.RetryAfterSec)
	}

	// One second later one token has refilled.
	clock.advance(time.Second)
	if code, _ := submit(); code != 200 {
		t.Errorf("post-refill code = %d, want 200", code)
	}
	// Other tenants have their own buckets.
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-2", SubmitRequest{Script: testScript}, nil); code != 200 {
		t.Errorf("tenant-2 affected by tenant-1's bucket")
	}

	shed := srv.reg.Counter(`cvserve_shed_total{reason="rate",tenant="vc1"}`).Value()
	if shed != 1 {
		t.Errorf("shed counter = %v, want 1", shed)
	}
}

func TestQueueDepthSheds(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) { cfg.MaxQueuedPerTenant = 4 })
	release := saturate(srv, "vc2")
	c := ts.Client()

	// vc2 is saturated: every submission sheds with reason=queue.
	code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-2", SubmitRequest{Script: testScript, Async: true}, nil)
	if code != 429 {
		t.Fatalf("saturated tenant code = %d: %s", code, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Reason != "queue" {
		t.Fatalf("shed response = %s", raw)
	}

	// vc1 admits up to 4 in flight; the worker drains them, so depth
	// returns to zero and admission recovers.
	for i := 0; i < 12; i++ {
		code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript, Async: true}, nil)
		if code != 202 && code != 429 {
			t.Fatalf("submit %d: code = %d", i, code)
		}
	}
	srv.sys.Drain()
	release()
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.adm.inflight(); n != 0 {
		t.Fatalf("inflight = %d after drain, want 0", n)
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript, Async: true}, nil); code != 202 {
		t.Errorf("post-drain submit code = %d, want 202", code)
	}
}

func TestMetricsAndDash(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()

	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript}, nil); code != 200 {
		t.Fatal("seed submission failed")
	}
	code, raw := do(t, c, "GET", ts.URL+"/metrics", "", nil, nil)
	if code != 200 {
		t.Fatalf("metrics code = %d", code)
	}
	for _, want := range []string{"cloudviews_jobs_total", `cvserve_accepted_total{tenant="vc1"} 1`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	code, raw = do(t, c, "GET", ts.URL+"/dash", "tok-1", nil, nil)
	if code != 200 || !bytes.Contains(raw, []byte("<!doctype html>")) {
		t.Errorf("dash code = %d, body prefix %.40s", code, raw)
	}
	if code, _ := do(t, c, "GET", ts.URL+"/dash", "", nil, nil); code != 401 {
		t.Errorf("unauthenticated dash code = %d, want 401", code)
	}

	var health map[string]any
	if code, _ := do(t, c, "GET", ts.URL+"/healthz", "", nil, &health); code != 200 || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, health)
	}
}

func TestAdminEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()

	if code, _ := do(t, c, "POST", ts.URL+"/admin/vcs/vc1/onboard", "tok-admin", nil, nil); code != 200 {
		t.Fatalf("onboard failed")
	}

	// Three recurring submissions, spaced a minute apart, then analyze.
	for i := 0; i < 3; i++ {
		var st JobStatusResponse
		if code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1",
			SubmitRequest{Pipeline: "p", Script: testScript}, &st); code != 200 {
			t.Fatalf("submit %d: %d %s", i, code, raw)
		}
		if code, _ := do(t, c, "POST", ts.URL+"/admin/advance", "tok-admin", AdvanceRequest{Seconds: 60}, nil); code != 200 {
			t.Fatalf("advance failed")
		}
	}
	var ar AnalyzeResponse
	if code, raw := do(t, c, "POST", ts.URL+"/admin/analyze", "tok-admin", AnalyzeRequest{WindowHours: 1}, &ar); code != 200 {
		t.Fatalf("analyze: %d %s", code, raw)
	}
	if ar.TemplatesTagged == 0 {
		t.Error("analyze tagged nothing over a recurring stream")
	}

	// Reuse is live after the feedback loop ran.
	var st JobStatusResponse
	if _, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Pipeline: "p", Script: testScript}, &st); st.Result == nil {
		t.Fatalf("post-analyze submit: %s", raw)
	}
	built := st.Result.ViewsBuilt
	if _, _ = do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Pipeline: "p", Script: testScript}, &st); st.Result.ViewsReused == 0 && built == 0 {
		t.Error("no view built or reused through the server after analyze")
	}

	// RunDay through the admin API.
	var dm map[string]any
	rd := RunDayRequest{Day: 1, Jobs: []SubmitRequest{{VC: "vc1", Script: testScript}}}
	if code, raw := do(t, c, "POST", ts.URL+"/admin/runday", "tok-admin", rd, &dm); code != 200 {
		t.Fatalf("runday: %d %s", code, raw)
	}
	if dm["Jobs"] != float64(1) {
		t.Errorf("runday metrics = %v", dm["Jobs"])
	}

	// Offboard drains and disables; the tenant can still submit.
	if code, _ := do(t, c, "POST", ts.URL+"/admin/vcs/vc1/offboard", "tok-admin", nil, nil); code != 200 {
		t.Fatal("offboard failed")
	}
	if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript, Async: true}, nil); code != 202 {
		t.Error("submission after offboard rejected")
	}
}

func TestSLOSample(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.sloRules = telemetry.WithThreshold(telemetry.ServerRules(), "shed-spike", 5)
		cfg.now = clock.now
	})
	saturate(srv, "vc2")
	c := ts.Client()

	// Quiet day: no alerts.
	var resp SLOSampleResponse
	if code, _ := do(t, c, "POST", ts.URL+"/admin/slo/sample", "tok-admin", SLOSampleRequest{Day: 0}, &resp); code != 200 {
		t.Fatal("sample failed")
	}
	if resp.Verdict != "OK" {
		t.Fatalf("quiet day verdict = %q (%v)", resp.Verdict, resp.Alerts)
	}

	// Ten shed requests in one interval: the shed-spike rule fires.
	for i := 0; i < 10; i++ {
		if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-2", SubmitRequest{Script: testScript}, nil); code != 429 {
			t.Fatal("expected shed")
		}
	}
	if code, _ := do(t, c, "POST", ts.URL+"/admin/slo/sample", "tok-admin", SLOSampleRequest{Day: 1}, &resp); code != 200 {
		t.Fatal("sample failed")
	}
	if resp.Verdict == "OK" || len(resp.Alerts) == 0 {
		t.Fatalf("shed spike not detected: %+v", resp)
	}
	found := false
	for _, a := range resp.Alerts {
		if strings.Contains(a, "shed-spike") {
			found = true
		}
	}
	if !found {
		t.Errorf("alerts = %v, want shed-spike", resp.Alerts)
	}

	// Next interval is quiet again — deltas, not cumulative totals.
	if code, _ := do(t, c, "POST", ts.URL+"/admin/slo/sample", "tok-admin", SLOSampleRequest{Day: 2}, &resp); code != 200 {
		t.Fatal("sample failed")
	}
	if resp.Verdict != "OK" {
		t.Errorf("post-spike quiet day verdict = %q (%v)", resp.Verdict, resp.Alerts)
	}
}

// TestSLOSampleRejectsEarlierDay: the day is outside input, and a series
// must never be handed a day lower than its last. Days 0, 1, 0 answer 200,
// 200, 409, and the refused call moves nothing: re-sampling day 1 judges the
// interval since the accepted day-1 sample, not since the refused one.
func TestSLOSampleRejectsEarlierDay(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.sloRules = telemetry.WithThreshold(telemetry.ServerRules(), "shed-spike", 5)
	})
	saturate(srv, "vc2")
	c := ts.Client()
	sample := func(day int) (int, SLOSampleResponse) {
		t.Helper()
		var resp SLOSampleResponse
		code, _ := do(t, c, "POST", ts.URL+"/admin/slo/sample", "tok-admin", SLOSampleRequest{Day: day}, &resp)
		return code, resp
	}
	shed := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-2", SubmitRequest{Script: testScript}, nil); code != 429 {
				t.Fatal("expected shed")
			}
		}
	}

	if code, resp := sample(0); code != 200 || resp.Verdict != "OK" {
		t.Fatalf("day 0: %d %+v", code, resp)
	}
	shed(10)
	code, day1 := sample(1)
	if code != 200 || len(day1.Alerts) != 1 || !strings.Contains(day1.Alerts[0], "shed-spike") {
		t.Fatalf("day 1: %d %+v, want one shed-spike alert", code, day1)
	}
	shed(3)
	if code, resp := sample(0); code != http.StatusConflict {
		t.Fatalf("day 0 after day 1: %d %+v, want 409", code, resp)
	}
	// Had the refused call consumed the interval, the 3 sheds since day 1
	// would be gone from the delta and this sample would read 0.
	shed(3)
	code, again := sample(1)
	if code != 200 || len(again.Alerts) != 1 || !strings.Contains(again.Alerts[0], "= 6 exceeds budget 5") {
		t.Fatalf("day 1 again: %d %+v, want the 6 sheds since the accepted day-1 sample", code, again)
	}
}

// TestAdminDurationsOutOfRange: seconds and window_hours are floats from
// outside; a product that does not fit an int64 of nanoseconds wraps in the
// conversion, and a wrapped advance moves the simulated clock backwards.
func TestAdminDurationsOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()
	clock := func() string {
		t.Helper()
		var out map[string]string
		if code, raw := do(t, c, "POST", ts.URL+"/admin/advance", "tok-admin", AdvanceRequest{}, &out); code != 200 {
			t.Fatalf("advance 0: %d %s", code, raw)
		}
		return out["clock"]
	}
	start := clock()
	for _, tc := range []struct {
		path string
		body any
		want int
	}{
		{"/admin/advance", AdvanceRequest{Seconds: 0}, 200},
		{"/admin/advance", AdvanceRequest{Seconds: 3600}, 200},
		{"/admin/advance", AdvanceRequest{Seconds: 9.3e9}, 400},
		{"/admin/advance", AdvanceRequest{Seconds: 1e300}, 400},
		{"/admin/analyze", AnalyzeRequest{WindowHours: 0}, 200},
		{"/admin/analyze", AnalyzeRequest{WindowHours: 24}, 200},
		{"/admin/analyze", AnalyzeRequest{WindowHours: 2.6e6}, 400},
		{"/admin/analyze", AnalyzeRequest{WindowHours: 1e300}, 400},
	} {
		if code, raw := do(t, c, "POST", ts.URL+tc.path, "tok-admin", tc.body, nil); code != tc.want {
			t.Errorf("%s %+v: %d %s, want %d", tc.path, tc.body, code, raw, tc.want)
		}
	}
	at, err := time.Parse(time.RFC3339, start)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clock(), at.Add(time.Hour).Format(time.RFC3339); got != want {
		t.Errorf("clock = %s, want %s: only the accepted 3600 s may move it", got, want)
	}
}

func TestParamsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()

	var st JobStatusResponse
	script := `r = SELECT Region, COUNT(*) AS n FROM Events WHERE Value > @cut GROUP BY Region; OUTPUT r TO "out/r";`
	code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1",
		SubmitRequest{Script: script, Params: map[string]any{"cut": 30.0}}, &st)
	if code != 200 {
		t.Fatalf("param submit: %d %s", code, raw)
	}
	if st.Result.Rows != 3 {
		t.Errorf("rows = %d", st.Result.Rows)
	}
}

func TestDrainingRefusesSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	c := ts.Client()

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown() }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript}, nil)
	if code != 503 {
		t.Fatalf("draining submit code = %d: %s", code, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.RetryAfterSec <= 0 {
		t.Errorf("draining response = %s", raw)
	}
	if code, _ := do(t, c, "GET", ts.URL+"/healthz", "", nil, nil); code != 503 {
		t.Errorf("draining healthz code = %d, want 503", code)
	}
}

// TestParamKindConversion pins the JSON→Value mapping.
func TestParamKindConversion(t *testing.T) {
	vals, err := convertParams(map[string]any{
		"i": 42.0, "f": 1.5, "s": "x", "b": true, "n": nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vals["i"].Kind != cloudviews.KindInt || vals["i"].I != 42 {
		t.Errorf("integral number → %+v, want KindInt 42", vals["i"])
	}
	if vals["f"].Kind != cloudviews.KindFloat || vals["f"].F != 1.5 {
		t.Errorf("fractional number → %+v", vals["f"])
	}
	if vals["s"].Kind != cloudviews.KindString || vals["b"].Kind != cloudviews.KindBool {
		t.Errorf("string/bool conversion broken: %+v %+v", vals["s"], vals["b"])
	}
	if !vals["n"].IsNull() {
		t.Errorf("null → %+v", vals["n"])
	}
	if _, err := convertParams(map[string]any{"bad": map[string]any{}}); err == nil {
		t.Error("object param must be rejected")
	}
}

// TestTenantSeriesAppearOnFirstBump pins /metrics across the per-tenant series
// handle: a series exists from the request that first bumps it and not before
// (no failed-jobs series for a tenant whose jobs succeed, no accepted series
// for a tenant that only polls), under the names it has always had, whichever
// of a tenant's requests created the handle.
func TestTenantSeriesAppearOnFirstBump(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	c := ts.Client()
	export := func() string {
		var out []string
		for _, line := range strings.Split(srv.reg.ExportString(), "\n") {
			if strings.HasPrefix(line, "cvserve_") {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}

	// vc2 polls a job that does not exist: its handle is created by a request
	// that accepts nothing.
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/nope", "tok-2", nil, nil); code != 404 {
		t.Fatalf("poll: code = %d", code)
	}
	if got, want := export(), `cvserve_requests_total{tenant="vc2"} 1`; got != want {
		t.Fatalf("after a poll:\n got %s\nwant %s", got, want)
	}

	var st JobStatusResponse
	if code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: testScript}, &st); code != 200 {
		t.Fatalf("sync submit: %d %s", code, raw)
	}
	if code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", SubmitRequest{Script: "SELECT nothing FROM Nowhere"}, nil); code != 422 {
		t.Fatalf("failing submit: %d %s", code, raw)
	}
	// The admin submits on vc2's behalf: the request counts against the
	// admin credential, the job against vc2.
	if code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-admin", SubmitRequest{VC: "vc2", Script: testScript, Async: true}, &st); code != 202 {
		t.Fatalf("admin async submit: %d %s", code, raw)
	}
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID+"?wait=1", "tok-admin", nil, nil); code != 200 {
		t.Fatalf("admin poll: code = %d", code)
	}
	srv.wg.Wait() // the async job's bookkeeping has settled

	want := strings.Join([]string{
		`cvserve_accepted_total{tenant="vc1"} 2`,
		`cvserve_accepted_total{tenant="vc2"} 1`,
		`cvserve_inflight{vc="vc1"} 0`,
		`cvserve_inflight{vc="vc2"} 0`,
		`cvserve_jobs_completed_total{tenant="vc1"} 1`,
		`cvserve_jobs_completed_total{tenant="vc2"} 1`,
		`cvserve_jobs_failed_total{tenant="vc1"} 1`,
		`cvserve_requests_total{tenant="!admin"} 2`,
		`cvserve_requests_total{tenant="vc1"} 2`,
		`cvserve_requests_total{tenant="vc2"} 1`,
	}, "\n")
	if got := export(); got != want {
		t.Fatalf("cvserve series:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTrackedJobsCap: the poll-by-ID registry holds maxTrackedJobs finished
// jobs. A job still running when its turn to be evicted comes is kept, and
// must go once it has finished — not stay behind, unqueued, holding its
// result and a slot of the cap for the life of the server.
func TestTrackedJobsCap(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	plan.RegisterUDO(&plan.UDOImpl{
		Name:          "HoldUntilReleased",
		Deterministic: true,
		OutSchema:     func(in data.Schema) data.Schema { return in.Clone() },
		Apply: func(in data.Row, emit func(data.Row), _ *plan.EvalContext) {
			<-release
			emit(in)
		},
	})
	srv, ts := newTestServer(t, func(cfg *Config) { cfg.maxTrackedJobs = 2 })
	t.Cleanup(unblock) // registered after the server's: runs before Shutdown waits
	c := ts.Client()
	submit := func(token, script string, async bool) string {
		t.Helper()
		var st JobStatusResponse
		if code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", token, SubmitRequest{Script: script, Async: async}, &st); code != 200 && code != 202 {
			t.Fatalf("submit: %d %s", code, raw)
		}
		return st.ID
	}
	tracked := func() (jobs, queued int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.jobs), len(srv.jobOrder)
	}

	// vc1's worker is held inside the first job; two more queue behind it.
	// All three are unfinished: tracking the third makes one pass and keeps
	// them all.
	held := []string{
		submit("tok-1", `r = PROCESS Events USING "HoldUntilReleased"; OUTPUT r TO "out/held";`, true),
		submit("tok-1", testScript, true),
		submit("tok-1", testScript, true),
	}
	if jobs, queued := tracked(); jobs != 3 || queued != 3 {
		t.Fatalf("tracking %d jobs, %d queued for eviction, want the 3 running ones", jobs, queued)
	}
	// Finished jobs come and go around them.
	for i := 0; i < 3; i++ {
		submit("tok-2", testScript, false)
	}
	if jobs, queued := tracked(); jobs != 3 || queued != 3 {
		t.Fatalf("tracking %d jobs, %d queued, want still the 3 running ones", jobs, queued)
	}
	for _, id := range held {
		if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+id, "tok-1", nil, nil); code != 200 {
			t.Fatalf("running job %s: code %d, want it still tracked", id, code)
		}
	}

	unblock()
	if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+held[2]+"?wait=1", "tok-1", nil, nil); code != 200 {
		t.Fatalf("waiting for the held jobs: %d", code)
	}
	last := []string{submit("tok-2", testScript, false), submit("tok-2", testScript, false)}
	if jobs, queued := tracked(); jobs != 2 || queued != 2 {
		t.Fatalf("tracking %d jobs, %d queued after the held ones finished, want 2 and 2", jobs, queued)
	}
	for _, id := range held {
		if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+id, "tok-1", nil, nil); code != 404 {
			t.Errorf("finished job %s: code %d, want it evicted", id, code)
		}
	}
	for _, id := range last {
		if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+id, "tok-2", nil, nil); code != 200 {
			t.Errorf("newest job %s: code %d, want it tracked", id, code)
		}
	}
}
