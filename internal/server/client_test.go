package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// scriptedServer replays a fixed sequence of submission responses, recording
// each request. After the script runs out it answers 202.
type scriptedServer struct {
	mu     sync.Mutex
	script []scriptedResponse
	hits   int
}

type scriptedResponse struct {
	code       int
	reason     string  // shed reason for 429s
	retryAfter float64 // seconds, advertised via header + body
}

func (f *scriptedServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		var resp scriptedResponse
		if f.hits < len(f.script) {
			resp = f.script[f.hits]
		} else {
			resp = scriptedResponse{code: http.StatusAccepted}
		}
		f.hits++
		f.mu.Unlock()
		switch resp.code {
		case http.StatusAccepted:
			writeJSON(w, resp.code, JobStatusResponse{ID: "job-000001", VC: "vc1", Status: "queued"})
		case http.StatusOK:
			writeJSON(w, resp.code, JobStatusResponse{ID: "job-000001", VC: "vc1", Status: "done"})
		default:
			writeError(w, resp.code, resp.reason, resp.retryAfter, "scripted %d", resp.code)
		}
	})
}

// newScriptedClient wires a Client to a scripted server, capturing sleeps.
func newScriptedClient(t *testing.T, script []scriptedResponse, mutate func(*Client)) (*Client, *scriptedServer, *[]time.Duration) {
	t.Helper()
	fake := &scriptedServer{script: script}
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)
	var sleeps []time.Duration
	c := &Client{
		BaseURL: ts.URL,
		Token:   "tok-1",
		HTTP:    ts.Client(),
		sleep:   func(d time.Duration) { sleeps = append(sleeps, d) },
	}
	if mutate != nil {
		mutate(c)
	}
	return c, fake, &sleeps
}

// TestClientHonorsRetryAfterOnRateShed: a rate-shed 429 advertises the exact
// token wait; the client sleeps precisely that long, once, then succeeds.
func TestClientHonorsRetryAfterOnRateShed(t *testing.T) {
	c, fake, sleeps := newScriptedClient(t, []scriptedResponse{
		{code: 429, reason: "rate", retryAfter: 2},
	}, nil)
	st, err := c.Submit(SubmitRequest{Script: testScript, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "queued" {
		t.Fatalf("status = %q, want queued", st.Status)
	}
	if fake.hits != 2 {
		t.Fatalf("server saw %d requests, want 2", fake.hits)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 2*time.Second {
		t.Fatalf("sleeps = %v, want exactly [2s]", *sleeps)
	}
	rate, queue := c.ShedCounts()
	if rate != 1 || queue != 0 {
		t.Fatalf("shed counts rate=%d queue=%d, want 1/0", rate, queue)
	}
}

// TestClientQueueShedBacksOffExponentially: without a Retry-After hint, queue
// sheds back off from 100ms, doubling per attempt, capped at 5s, so repeated
// sheds spread out.
func TestClientQueueShedBacksOffExponentially(t *testing.T) {
	script := make([]scriptedResponse, 7)
	for i := range script {
		script[i] = scriptedResponse{code: 429, reason: "queue"}
	}
	c, _, sleeps := newScriptedClient(t, script, func(c *Client) { c.MaxAttempts = 8 })
	if _, err := c.Submit(SubmitRequest{Script: testScript, Async: true}); err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5 * time.Second}
	if fmt.Sprint(*sleeps) != fmt.Sprint(want) {
		t.Fatalf("sleeps = %v, want %v (doubling from 100ms, capped at 5s)", *sleeps, want)
	}
	rate, queue := c.ShedCounts()
	if rate != 0 || queue != 7 {
		t.Fatalf("shed counts rate=%d queue=%d, want 0/7", rate, queue)
	}
}

// TestClientBackoffCapped: the cap bounds every sleep, Retry-After included.
func TestClientBackoffCapped(t *testing.T) {
	c, _, sleeps := newScriptedClient(t, []scriptedResponse{
		{code: 429, reason: "rate", retryAfter: 60},
		{code: 429, reason: "queue", retryAfter: 60},
	}, func(c *Client) { c.MaxAttempts = 5 })
	if _, err := c.Submit(SubmitRequest{Script: testScript, Async: true}); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{5 * time.Second, 5 * time.Second}; fmt.Sprint(*sleeps) != fmt.Sprint(want) {
		t.Fatalf("sleeps = %v, want %v (the 5s cap)", *sleeps, want)
	}
}

// TestClientGivesUpAfterMaxAttempts: a persistent shed yields *ShedError
// carrying the final reason, and no sleep follows the final attempt.
func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	script := make([]scriptedResponse, 10)
	for i := range script {
		script[i] = scriptedResponse{code: 429, reason: "queue", retryAfter: 1}
	}
	c, fake, sleeps := newScriptedClient(t, script, func(c *Client) { c.MaxAttempts = 3 })
	_, err := c.Submit(SubmitRequest{Script: testScript, Async: true})
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.Reason != "queue" || shed.Attempts != 3 {
		t.Fatalf("shed = %+v, want reason=queue attempts=3", shed)
	}
	if got, want := err.Error(), "submission shed 3 times (last reason=queue, retry-after 1s)"; got != want {
		t.Errorf("error text = %q, want %q", got, want)
	}
	if fake.hits != 3 {
		t.Fatalf("server saw %d requests, want 3", fake.hits)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("slept %d times, want 2 (none after the final attempt)", len(*sleeps))
	}
}

// TestClientDistinguishesShedReasons: mixed rate and queue sheds are tallied
// separately and waited differently (rate = exact, queue = floored backoff).
func TestClientDistinguishesShedReasons(t *testing.T) {
	c, _, sleeps := newScriptedClient(t, []scriptedResponse{
		{code: 429, reason: "rate", retryAfter: 1.5},
		{code: 429, reason: "queue", retryAfter: 0.1},
	}, nil)
	if _, err := c.Submit(SubmitRequest{Script: testScript, Async: true}); err != nil {
		t.Fatal(err)
	}
	rate, queue := c.ShedCounts()
	if rate != 1 || queue != 1 {
		t.Fatalf("shed counts rate=%d queue=%d, want 1/1", rate, queue)
	}
	// Retry-After arrives as a whole-second header (ceil of 1.5 = 2s, of
	// 0.1 = 1s): the rate wait obeys it exactly; the queue wait is the larger
	// of the hint and the 2nd attempt's backoff (200ms).
	want := []time.Duration{2 * time.Second, time.Second}
	if fmt.Sprint(*sleeps) != fmt.Sprint(want) {
		t.Fatalf("sleeps = %v, want %v", *sleeps, want)
	}
}

// TestClientSurfacesAPIErrors: non-shed errors are not retried.
func TestClientSurfacesAPIErrors(t *testing.T) {
	c, fake, sleeps := newScriptedClient(t, []scriptedResponse{
		{code: 422},
	}, nil)
	_, err := c.Submit(SubmitRequest{Script: testScript})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("err = %v, want *APIError{422}", err)
	}
	if got, want := err.Error(), "cvserve: 422: scripted 422"; got != want {
		t.Errorf("error text = %q, want %q", got, want)
	}
	if fake.hits != 1 || len(*sleeps) != 0 {
		t.Fatalf("client retried a 422 (hits=%d sleeps=%v)", fake.hits, *sleeps)
	}
}

// TestClientAgainstRealServer: end to end against the actual Server — a
// saturated tenant sheds with reason=queue; a healthy one accepts and the
// client's Wait sees the job through.
func TestClientAgainstRealServer(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	saturate(srv, "vc2")
	ok := &Client{BaseURL: ts.URL, Token: "tok-1", HTTP: ts.Client()}
	st, err := ok.Submit(SubmitRequest{Script: testScript, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	final, err := ok.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" {
		t.Fatalf("final status = %q (%s), want done", final.Status, final.Error)
	}

	saturated := &Client{BaseURL: ts.URL, Token: "tok-2", HTTP: ts.Client(),
		MaxAttempts: 2, sleep: func(time.Duration) {}}
	_, err = saturated.Submit(SubmitRequest{Script: testScript, Async: true})
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != "queue" {
		t.Fatalf("saturated tenant err = %v, want queue ShedError", err)
	}
}
