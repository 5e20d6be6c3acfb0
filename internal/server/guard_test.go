package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews"
)

// newGuardedTestServer builds a server over a guard-enabled system and
// mounts it on an httptest server.
func newGuardedTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := cloudviews.NewSystem(cloudviews.Config{
		ClusterName: "srv-guard-test",
		Capacity:    100,
		Guard:       cloudviews.GuardConfig{Enabled: true},
	})
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
	cfg := Config{
		System:     sys,
		Tokens:     map[string]string{"tok-a": "vc-a", "tok-b": "vc-b", "tok-c": "vc-c", "tok-d": "vc-d"},
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

// TestGuardAdminEndpoints drives the guard admin plane over HTTP: snapshot,
// forced breaker trip/reset, VC kill/restore, and the decision log.
func TestGuardAdminEndpoints(t *testing.T) {
	_, ts := newGuardedTestServer(t, nil)
	client := ts.Client()
	var snap map[string]any
	if code, raw := do(t, client, "GET", ts.URL+"/admin/guard", "tok-admin", nil, &snap); code != 200 {
		t.Fatalf("GET /admin/guard = %d: %s", code, raw)
	}
	// Tenant tokens must not reach the admin plane.
	if code, _ := do(t, client, "GET", ts.URL+"/admin/guard", "tok-a", nil, nil); code != 403 {
		t.Fatalf("tenant token got /admin/guard code %d, want 403", code)
	}

	if code, raw := do(t, client, "POST", ts.URL+"/admin/guard/vcs/vc-a/kill", "tok-admin",
		GuardActionRequest{Day: 3}, nil); code != 200 {
		t.Fatalf("kill = %d: %s", code, raw)
	}
	if code, raw := do(t, client, "POST", ts.URL+"/admin/guard/breakers/sig-x/trip", "tok-admin",
		GuardActionRequest{Day: 3}, nil); code != 200 {
		t.Fatalf("trip = %d: %s", code, raw)
	}

	var after struct {
		VCs []struct {
			VC    string `json:"vc"`
			State string `json:"state"`
		} `json:"vcs"`
		Breakers []struct {
			Sig   string `json:"sig"`
			State string `json:"state"`
		} `json:"breakers"`
	}
	if code, raw := do(t, client, "GET", ts.URL+"/admin/guard", "tok-admin", nil, &after); code != 200 {
		t.Fatalf("GET /admin/guard = %d: %s", code, raw)
	}
	foundKilled, foundOpen := false, false
	for _, vc := range after.VCs {
		if vc.VC == "vc-a" && vc.State == "killed" {
			foundKilled = true
		}
	}
	for _, b := range after.Breakers {
		if b.Sig == "sig-x" && b.State == "open" {
			foundOpen = true
		}
	}
	if !foundKilled || !foundOpen {
		t.Fatalf("snapshot missing forced state (killed=%v open=%v): %+v", foundKilled, foundOpen, after)
	}

	if code, _ := do(t, client, "POST", ts.URL+"/admin/guard/vcs/vc-a/restore", "tok-admin",
		GuardActionRequest{Day: 3}, nil); code != 200 {
		t.Fatal("restore failed")
	}
	if code, _ := do(t, client, "POST", ts.URL+"/admin/guard/breakers/sig-x/reset", "tok-admin",
		GuardActionRequest{Day: 3}, nil); code != 200 {
		t.Fatal("reset failed")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/admin/guard/log", nil)
	req.Header.Set("Authorization", "Bearer tok-admin")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	log := string(buf[:n])
	for _, want := range []string{"admin-kill", "admin-trip", "admin-restore", "admin-reset"} {
		if !strings.Contains(log, want) {
			t.Errorf("decision log missing %q:\n%s", want, log)
		}
	}
}

// TestGuardEndpointsWithoutGuard: a guard-free system answers the guard
// admin plane with 409, not a silent no-op.
func TestGuardEndpointsWithoutGuard(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if code, raw := do(t, ts.Client(), "GET", ts.URL+"/admin/guard", "tok-admin", nil, nil); code != 409 {
		t.Fatalf("guard-free /admin/guard = %d (%s), want 409", code, raw)
	}
	if code, _ := do(t, ts.Client(), "POST", ts.URL+"/admin/guard/vcs/vc1/kill", "tok-admin",
		GuardActionRequest{}, nil); code != 409 {
		t.Fatal("guard-free kill did not 409")
	}
}

// TestGuardActionRejectsMalformedBody: a guard action whose body does not
// decode answers 400 and leaves the guard as it was, where it used to act at
// day 0; an empty body still means day 0.
func TestGuardActionRejectsMalformedBody(t *testing.T) {
	srv, _ := newGuardedTestServer(t, nil)
	h := srv.Handler()
	post := func(target, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", target, strings.NewReader(body))
		req.Header.Set("Authorization", "Bearer tok-admin")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	state := func() string {
		return srv.sys.Guard().RenderLog() + fmt.Sprint(srv.sys.Guard().Snapshot())
	}
	before := state()
	for _, target := range []string{
		"/admin/guard/breakers/sig-x/trip", "/admin/guard/breakers/sig-x/reset",
		"/admin/guard/vcs/vc-a/kill", "/admin/guard/vcs/vc-a/restore",
	} {
		for _, body := range []string{`{"day":"3"}`, `{"day":`, `[3]`, `{"day":1.5}`} {
			rec := post(target, body)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid JSON body: ") {
				t.Errorf("POST %s %s = %d %s, want 400 invalid JSON body", target, body, rec.Code, rec.Body.Bytes())
			}
		}
	}
	if after := state(); after != before {
		t.Fatalf("malformed bodies moved the guard:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if rec := post("/admin/guard/vcs/vc-a/kill", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"day": 0`) {
		t.Fatalf("kill with an empty body = %d %s, want 200 at day 0", rec.Code, rec.Body.Bytes())
	}
	if state() == before {
		t.Fatal("kill with an empty body left the guard unchanged")
	}
}

// TestGuardKillSwitchMidLoad is the guard+server interaction regression: a
// VC kill switch trips over the admin plane while the 600-client load
// harness is in flight. The kill must only disable reuse — every accepted
// job still completes, the shed accounting stays airtight, the admission
// slots all come back, and no goroutine leaks.
func TestGuardKillSwitchMidLoad(t *testing.T) {
	srv, ts := newGuardedTestServer(t, func(cfg *Config) {
		cfg.MaxQueuedPerTenant = 48
		cfg.MaxQueued = 160
	})

	transport := ts.Client().Transport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 128
	httpClient := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	toks := []string{"tok-a", "tok-b", "tok-c", "tok-d"}
	baseGoroutines := runtime.NumGoroutine()

	var (
		mu       sync.Mutex
		accepted []string
		byToken  = map[string]string{}
		shed     int
	)
	start := make(chan struct{})
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < loadClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i == loadClients/2 {
				// Mid-flight: kill vc-a's reuse over the admin plane. The
				// submissions racing past this line must be unaffected.
				code, raw := do(t, httpClient, "POST", ts.URL+"/admin/guard/vcs/vc-a/kill",
					"tok-admin", GuardActionRequest{Day: 1}, nil)
				if code != 200 {
					t.Errorf("mid-flight kill = %d: %s", code, raw)
				}
				close(killed)
			}
			tok := toks[i%len(toks)]
			c := &Client{
				BaseURL:     ts.URL,
				Token:       tok,
				HTTP:        httpClient,
				MaxAttempts: 1, // shed accounting must stay 1:1 with requests
			}
			st, err := c.Submit(SubmitRequest{
				Pipeline: fmt.Sprintf("load-%d", i%7), Script: testScript, Async: true,
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted = append(accepted, st.ID)
				byToken[st.ID] = tok
			default:
				if _, ok := err.(*ShedError); !ok {
					t.Errorf("client %d: %v", i, err)
					return
				}
				shed++
			}
		}(i)
	}
	close(start)
	wg.Wait()
	<-killed

	if len(accepted)+shed != loadClients {
		t.Fatalf("accounting leak: %d accepted + %d shed != %d", len(accepted), shed, loadClients)
	}
	if len(accepted) == 0 {
		t.Fatal("nothing accepted; the harness proves nothing")
	}
	t.Logf("kill-mid-load: %d accepted, %d shed", len(accepted), shed)

	// Every accepted job completes despite the mid-flight kill.
	var pollWG sync.WaitGroup
	for _, id := range accepted {
		pollWG.Add(1)
		go func(id string) {
			defer pollWG.Done()
			c := &Client{BaseURL: ts.URL, Token: byToken[id], HTTP: httpClient}
			st, err := c.Wait(id)
			if err != nil {
				t.Errorf("job %s: %v", id, err)
				return
			}
			if st.Status != "done" {
				t.Errorf("job %s: status %q (%s)", id, st.Status, st.Error)
			}
		}(id)
	}
	pollWG.Wait()

	// The guard actually registered the kill.
	snap := srv.sys.Guard().Snapshot()
	foundKilled := false
	for _, vc := range snap.VCs {
		if vc.VC == "vc-a" && vc.State == "killed" {
			foundKilled = true
		}
	}
	if !foundKilled {
		t.Fatalf("vc-a not killed in guard snapshot: %+v", snap.VCs)
	}

	// Admission slots drained and counters agree.
	deadline := time.Now().Add(10 * time.Second)
	for srv.adm.inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.adm.inflight(); n != 0 {
		t.Errorf("inflight = %d after drain, want 0", n)
	}
	var acceptedMetric, shedMetric, completedMetric float64
	for name, v := range srv.reg.Snapshot() {
		switch {
		case strings.HasPrefix(name, "cvserve_accepted_total{"):
			acceptedMetric += v
		case strings.HasPrefix(name, "cvserve_shed_total{"):
			shedMetric += v
		case strings.HasPrefix(name, "cvserve_jobs_completed_total{"):
			completedMetric += v
		}
	}
	if int(acceptedMetric) != len(accepted) || int(shedMetric) != shed || int(completedMetric) != len(accepted) {
		t.Errorf("metrics disagree: accepted=%v shed=%v completed=%v vs client-side %d/%d/%d",
			acceptedMetric, shedMetric, completedMetric, len(accepted), shed, len(accepted))
	}

	// No goroutine leak once the bookkeeping settles (Shutdown waits for the
	// per-job release goroutines). Idle keepalive connections hold a
	// goroutine on each side, so drop them before measuring.
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	transport.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	got := runtime.NumGoroutine()
	for got > baseGoroutines+20 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		transport.CloseIdleConnections()
		got = runtime.NumGoroutine()
	}
	// Residual HTTP machinery goroutines are bounded; the per-job leak class
	// this guards against is in the hundreds.
	if got > baseGoroutines+20 {
		t.Errorf("goroutines grew from %d to %d across the kill-mid-load run", baseGoroutines, got)
	}
}
