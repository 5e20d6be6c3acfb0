package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestShedsAreSideEffectFree is the acceptance proof for admission control:
// a run that interleaves shed and rejected traffic between accepted
// submissions leaves the System in a byte-identical state to a run with the
// accepted traffic alone — same system metrics export, same auto-assigned
// job-ID stream, same repository records. Sheds consume no job sequence
// number and move nothing behind the front door, and neither does a body
// over the size cap.
//
// The comparison deliberately avoids Analyze: the repository's merge/query
// duration histograms are the one place wall-clock time may enter the
// system registry, and they only record during analysis queries.
func TestShedsAreSideEffectFree(t *testing.T) {
	type outcome struct {
		metrics string
		ids     []string
		repo    string
	}

	run := func(noise bool) outcome {
		// Every tenant's bucket holds one token and refills one a second on
		// the fake clock, which moves only where this test moves it.
		clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
		srv, ts := newTestServer(t, func(cfg *Config) {
			cfg.Tokens = map[string]string{
				"tok-1": "vc1",
				"tok-2": "vc2",
				"tok-s": "vc-saturated", // every admission slot held: queue-sheds
				"tok-t": "vc-throttled", // spends its token, then rate-sheds
			}
			cfg.Rate, cfg.Burst = 1, 1
			cfg.now = clock.now
		})
		saturate(srv, "vc-saturated")
		c := ts.Client()

		// Burn vc-throttled's token on a request that fails validation after
		// the rate gate (empty script → 400): until the clock moves, every
		// request on tok-t sheds with reason=rate, and none of the throttled
		// traffic ever touches the System.
		makeNoise := func() {
			if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-t", SubmitRequest{}, nil); code != 400 && code != 429 {
				t.Fatalf("throttled-tenant noise: code = %d", code)
			}
			for i, want := range []int{401, 429, 429} {
				var code int
				switch i {
				case 0: // unknown bearer token
					code, _ = do(t, c, "POST", ts.URL+"/v1/jobs", "tok-bogus", SubmitRequest{Script: testScript}, nil)
				case 1: // saturated tenant: queue shed
					code, _ = do(t, c, "POST", ts.URL+"/v1/jobs", "tok-s", SubmitRequest{Script: testScript}, nil)
				case 2: // throttled tenant: rate shed
					code, _ = do(t, c, "POST", ts.URL+"/v1/jobs", "tok-t", SubmitRequest{Script: testScript}, nil)
				}
				if code != want {
					t.Fatalf("noise request %d: code = %d, want %d", i, code, want)
				}
			}
			// Malformed JSON and a bad param type (both 400 after auth).
			req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader("{"))
			req.Header.Set("Authorization", "Bearer tok-1")
			resp, err := c.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Fatalf("malformed JSON: code = %d", resp.StatusCode)
			}
			if code, _ := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-2",
				SubmitRequest{Script: testScript, Params: map[string]any{"x": []any{}}}, nil); code != 400 {
				t.Fatal("bad param accepted")
			}
			// A body over the cap, on a refilled bucket: 413, counted as a
			// bad request.
			clock.advance(time.Second)
			bad := srv.reg.Counter("cvserve_bad_requests_total")
			was := bad.Value()
			over := SubmitRequest{Script: testScript + strings.Repeat(" ", maxBodyBytes)}
			var er ErrorResponse
			code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", "tok-1", over, &er)
			if code != http.StatusRequestEntityTooLarge || !strings.Contains(er.Error, "larger than") {
				t.Fatalf("oversized body: %d %s", code, raw)
			}
			if bad.Value() != was+1 {
				t.Fatalf("oversized body moved cvserve_bad_requests_total by %v, want 1", bad.Value()-was)
			}
		}

		// The accepted stream: alternating sync and async submissions from
		// two tenants, serialized (each async job is polled to completion
		// before the next submission) so repository insertion order is
		// deterministic. A second passes before each burst of requests, so
		// every bucket holds its token again.
		var ids []string
		for step := 0; step < 6; step++ {
			if noise {
				clock.advance(time.Second)
				makeNoise()
			}
			clock.advance(time.Second)
			tok := "tok-1"
			if step%2 == 1 {
				tok = "tok-2"
			}
			req := SubmitRequest{Pipeline: fmt.Sprintf("pipe-%d", step%3), Script: testScript, Async: step%2 == 0}
			var st JobStatusResponse
			code, raw := do(t, c, "POST", ts.URL+"/v1/jobs", tok, req, &st)
			if code != 200 && code != 202 {
				t.Fatalf("accepted step %d: code = %d: %s", step, code, raw)
			}
			ids = append(ids, st.ID)
			if code == 202 {
				var got JobStatusResponse
				if code, _ := do(t, c, "GET", ts.URL+"/v1/jobs/"+st.ID+"?wait=1", tok, nil, &got); code != 200 || got.Status != "done" {
					t.Fatalf("step %d: job %s did not finish: %d %+v", step, st.ID, code, got)
				}
			}
		}
		if noise {
			clock.advance(time.Second)
			makeNoise()
		}

		var repo strings.Builder
		for _, rec := range srv.sys.Engine().Repo.Jobs() {
			fmt.Fprintf(&repo, "%+v\n", *rec)
		}
		return outcome{
			metrics: srv.sys.Metrics().ExportString(),
			ids:     ids,
			repo:    repo.String(),
		}
	}

	clean := run(false)
	noisy := run(true)

	if fmt.Sprint(clean.ids) != fmt.Sprint(noisy.ids) {
		t.Errorf("job-ID stream shifted by rejected traffic:\nclean: %v\nnoisy: %v", clean.ids, noisy.ids)
	}
	if clean.metrics != noisy.metrics {
		t.Errorf("system metrics differ with rejected traffic present:\n--- clean ---\n%s\n--- noisy ---\n%s",
			clean.metrics, noisy.metrics)
	}
	if clean.repo != noisy.repo {
		t.Errorf("repository records differ with rejected traffic present:\n--- clean ---\n%s\n--- noisy ---\n%s",
			clean.repo, noisy.repo)
	}
	if clean.metrics == "" || clean.repo == "" {
		t.Fatal("comparison is vacuous: no system metrics or repository records captured")
	}
}
