// Command cvserve runs the CloudViews multi-tenant network front end: a
// long-lived HTTP service wrapping one cloudviews.System with per-VC
// bearer-token authentication, token-bucket rate limiting, and queue-depth
// admission control that sheds load with 429 before the async submission
// workers saturate.
//
// Usage:
//
//	cvserve -tokens "vc1=sekrit1,vc2=sekrit2" -admin-token root
//	        [-addr :8080] [-cluster prod] [-rate 100] [-burst 200]
//	        [-max-queue 64] [-max-queue-global 1024]
//	        [-store mem|disk] [-datadir DIR] [-demo] [-pprof]
//
// -demo publishes a small Events dataset and onboards every configured VC,
// so a fresh server answers queries immediately:
//
//	curl -s -H 'Authorization: Bearer sekrit1' -d '{
//	  "script": "r = SELECT Region, COUNT(*) AS n FROM Events GROUP BY Region; OUTPUT r TO \"out/r\";"
//	}' localhost:8080/v1/jobs
//
// Endpoints: POST /v1/jobs (sync, or async with "async": true), GET
// /v1/jobs/{id} (?wait=1 long-polls, ?rows=N inlines result rows), GET
// /v1/jobs/{id}/trace, GET /metrics (Prometheus), GET /dash (live HTML
// dashboard), GET /healthz, and under the admin token POST
// /admin/vcs/{vc}/onboard, /admin/vcs/{vc}/offboard, /admin/analyze,
// /admin/runday, /admin/advance, /admin/slo/sample. GET /v1/jobs/{id}/explain
// returns the structured reuse-provenance report and GET /admin/explain the
// fleet-wide miss-reason rollup; -pprof additionally mounts net/http/pprof at
// /admin/debug/pprof/ behind the admin token.
//
// On SIGINT/SIGTERM the server stops accepting, drains the async workers,
// and closes the storage engine, in that order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cloudviews"
	"cloudviews/internal/server"
	"cloudviews/internal/storage/durable"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cluster := flag.String("cluster", "cvserve", "cluster name (scopes signatures)")
	capacity := flag.Int("capacity", 1000, "cluster container capacity")
	tokens := flag.String("tokens", "", `per-VC bearer tokens, "vc1=tok1,vc2=tok2"`)
	adminToken := flag.String("admin-token", "", "admin bearer token (empty disables /admin)")
	rate := flag.Float64("rate", 0, "per-tenant submissions/sec (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-tenant burst capacity (0 = max(1, rate))")
	maxQueue := flag.Int("max-queue", 64, "per-VC in-flight submission cap")
	maxQueueGlobal := flag.Int("max-queue-global", 1024, "server-wide in-flight submission cap")
	store := flag.String("store", "mem", `view-store backend: "mem" or "disk" (durable WAL+snapshot)`)
	datadir := flag.String("datadir", "cvserve-data", "data directory for -store=disk")
	demo := flag.Bool("demo", false, "publish a demo Events dataset and onboard every configured VC")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under the admin token at /admin/debug/pprof/")
	flag.Parse()

	if err := run(*addr, *cluster, *capacity, *tokens, *adminToken, *rate, *burst,
		*maxQueue, *maxQueueGlobal, *store, *datadir, *demo, *pprof); err != nil {
		fmt.Fprintf(os.Stderr, "cvserve: %v\n", err)
		os.Exit(1)
	}
}

// parseTokens parses "vc1=tok1,vc2=tok2" into token → VC.
func parseTokens(spec string) (map[string]string, error) {
	out := make(map[string]string)
	if spec == "" {
		return out, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		vc, tok, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || vc == "" || tok == "" {
			return nil, fmt.Errorf("bad -tokens entry %q (want vc=token)", pair)
		}
		if prev, dup := out[tok]; dup {
			return nil, fmt.Errorf("token for %q already assigned to %q", vc, prev)
		}
		out[tok] = vc
	}
	return out, nil
}

func run(addr, cluster string, capacity int, tokenSpec, adminToken string,
	rate, burst float64, maxQueue, maxQueueGlobal int, store, datadir string, demo, pprof bool) error {
	tokens, err := parseTokens(tokenSpec)
	if err != nil {
		return err
	}
	if len(tokens) == 0 && adminToken == "" {
		return errors.New("no -tokens and no -admin-token: nobody could authenticate")
	}

	cfg := cloudviews.Config{ClusterName: cluster, Capacity: capacity}
	var closeStorage func() error
	switch store {
	case "mem":
	case "disk":
		eng, err := durable.Open(datadir)
		if err != nil {
			return fmt.Errorf("open durable store: %w", err)
		}
		rec := eng.Recovery()
		fmt.Printf("cvserve: view store recovered: %d views (%d snapshot, %d WAL records, %d torn tails dropped, %d in-flight abandoned)\n",
			rec.ViewsRecovered, rec.SnapshotsLoaded, rec.RecordsReplayed, rec.TornTailsTruncated, rec.InFlightAbandoned)
		cfg.StorageEngine = eng
		closeStorage = eng.Close
	default:
		return fmt.Errorf(`-store must be "mem" or "disk", got %q`, store)
	}

	sys, err := cloudviews.NewSystem(cfg)
	if err != nil {
		if closeStorage != nil {
			err = errors.Join(err, closeStorage())
		}
		return err
	}
	srv, err := server.New(server.Config{
		System:             sys,
		Tokens:             tokens,
		AdminToken:         adminToken,
		Rate:               rate,
		Burst:              burst,
		MaxQueuedPerTenant: maxQueue,
		MaxQueued:          maxQueueGlobal,
		CloseStorage:       closeStorage,
		EnablePprof:        pprof,
	})
	if err != nil {
		return err
	}
	// From here on every exit runs srv.Shutdown: accepted jobs drain and
	// the storage engine closes.
	if demo {
		if err := publishDemo(sys); err != nil {
			return errors.Join(err, srv.Shutdown())
		}
		for _, vc := range tokens {
			sys.OnboardVC(vc)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return errors.Join(err, srv.Shutdown())
	}
	fmt.Printf("cvserve: listening on %s (%d tenants, store=%s)\n", addr, len(tokens), store)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return serve(ctx, &http.Server{Handler: srv.Handler()}, ln, srv, 30*time.Second)
}

// serve runs httpSrv on ln until it fails or ctx is done. Either way it then
// stops in srv.Shutdown's order: close the listener and wait up to grace for
// in-flight handlers, then drain the workers and close storage. The drain
// runs even when the wait times out, for example behind a ?wait=1 long-poll
// that outlives grace, and the errors of both steps are joined.
func serve(ctx context.Context, httpSrv *http.Server, ln net.Listener, srv *server.Server, grace time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		return errors.Join(err, srv.Shutdown())
	case <-ctx.Done():
	}
	fmt.Println("cvserve: shutting down (stop accepting → drain workers → close storage)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return errors.Join(httpSrv.Shutdown(shutdownCtx), srv.Shutdown())
}

// publishDemo registers the Events dataset the README quick-start queries.
func publishDemo(sys *cloudviews.System) error {
	schema := cloudviews.Schema{
		{Name: "Id", Kind: cloudviews.KindInt},
		{Name: "Region", Kind: cloudviews.KindString},
		{Name: "Value", Kind: cloudviews.KindFloat},
	}
	if err := sys.DefineDataset("Events", schema); err != nil {
		return err
	}
	tb := &cloudviews.Table{Schema: schema}
	regions := []string{"us", "eu", "asia"}
	for i := 0; i < 300; i++ {
		tb.Append(cloudviews.Row{
			cloudviews.Int(int64(i)),
			cloudviews.String(regions[i%3]),
			cloudviews.Float(float64(i % 97)),
		})
	}
	if err := sys.PublishDataset("Events", tb); err != nil {
		return err
	}
	sys.SetScaleFactor("Events", 10_000)
	return nil
}
