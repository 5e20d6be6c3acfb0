package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// loadClients is the concurrent-client count for the load harness. The
// acceptance bar is ≥500 concurrent clients under -race with zero
// dropped-but-accepted jobs.
const loadClients = 600

// TestServerLoad drives loadClients concurrent clients against one server
// with admission limits tight enough that some traffic sheds, then proves
// the accounting is airtight: every request was either accepted or shed,
// every accepted job completes, and the server's counters agree with the
// client-side tallies to the job.
func TestServerLoad(t *testing.T) {
	tokens := map[string]string{
		"tok-a": "vc-a", "tok-b": "vc-b", "tok-c": "vc-c", "tok-d": "vc-d",
	}
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.Tokens = tokens
		cfg.MaxQueuedPerTenant = 48
		cfg.MaxQueued = 160
	})

	transport := ts.Client().Transport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 128
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	toks := make([]string, 0, len(tokens))
	for tok := range tokens {
		toks = append(toks, tok)
	}

	type accepted struct {
		id  string
		tok string
	}
	var (
		mu   sync.Mutex
		acc  []accepted
		shed int
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < loadClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tok := toks[i%len(toks)]
			// MaxAttempts 1 keeps the shed accounting 1:1 with requests;
			// the retry loop gets its own coverage in client_test.go.
			c := &Client{BaseURL: ts.URL, Token: tok, HTTP: client,
				MaxAttempts: 1}
			st, err := c.Submit(SubmitRequest{
				Pipeline: fmt.Sprintf("load-%d", i%7), Script: testScript, Async: true})
			mu.Lock()
			defer mu.Unlock()
			switch err.(type) {
			case nil:
				acc = append(acc, accepted{id: st.ID, tok: tok})
			case *ShedError:
				shed++
			default:
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if len(acc)+shed != loadClients {
		t.Fatalf("accounting leak: %d accepted + %d shed != %d requests",
			len(acc), shed, loadClients)
	}
	if len(acc) == 0 {
		t.Fatal("nothing was accepted; the harness proves nothing")
	}
	t.Logf("load: %d clients → %d accepted, %d shed", loadClients, len(acc), shed)

	// Zero dropped-but-accepted: every 202'd job must reach "done".
	var pollWG sync.WaitGroup
	for _, a := range acc {
		pollWG.Add(1)
		go func(a accepted) {
			defer pollWG.Done()
			c := &Client{BaseURL: ts.URL, Token: a.tok, HTTP: client}
			st, err := c.Wait(a.id)
			if err != nil {
				t.Errorf("job %s: %v", a.id, err)
				return
			}
			if st.Status != "done" {
				t.Errorf("job %s: status %q (%s)", a.id, st.Status, st.Error)
			}
		}(a)
	}
	pollWG.Wait()

	// The admission slots all came back, and the server's own counters
	// agree with the client-side tallies.
	deadline := time.Now().Add(10 * time.Second)
	for srv.adm.inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.adm.inflight(); n != 0 {
		t.Errorf("inflight = %d after all jobs completed, want 0", n)
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
	if int(acceptedMetric) != len(acc) {
		t.Errorf("cvserve_accepted_total = %v, client-side count %d", acceptedMetric, len(acc))
	}
	if int(shedMetric) != shed {
		t.Errorf("cvserve_shed_total = %v, client-side count %d", shedMetric, shed)
	}
	if int(completedMetric) != len(acc) {
		t.Errorf("cvserve_jobs_completed_total = %v, want %d", completedMetric, len(acc))
	}
	// And the System ran each accepted job exactly once.
	if jobs := srv.sys.Metrics().Counter("cloudviews_jobs_total").Value(); int(jobs) != len(acc) {
		t.Errorf("cloudviews_jobs_total = %v, want %d", jobs, len(acc))
	}
}
