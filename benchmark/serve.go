package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudviews"
	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/obs"
	"cloudviews/internal/server"
	"cloudviews/internal/workload"
)

const (
	adminToken = "bench-admin"
	// inlineRows is how many result rows the protocol returns inline; larger
	// answers are checked by row count alone.
	inlineRows = 1000
	// The request mix, in percent of ops drawn by seed.
	adhocShare = 20 // fresh ad-hoc scripts, sync: a plan-cache miss each
	asyncShare = 5  // recurring scripts submitted async, then long-polled
	// adhocDays of later days' ad-hoc jobs (about 67 a day) feed the ad-hoc
	// pool, enough for the longest run at the sizing-profile rate.
	adhocDays = 100
)

func tokenFor(vc string) string { return "tok-" + vc }

// newServer wraps a system in the HTTP front end with rate and queue limits
// lifted, so that any 429 or 5xx is a failure and not load shedding.
func newServer(sys *cloudviews.System, vcs []string, reg *obs.Registry) (*server.Server, error) {
	tokens := make(map[string]string, len(vcs))
	for _, vc := range vcs {
		tokens[tokenFor(vc)] = vc
	}
	return server.New(server.Config{
		System: sys, Tokens: tokens, AdminToken: adminToken,
		MaxQueuedPerTenant: 1 << 20, MaxQueued: 1 << 20, Metrics: reg,
	})
}

// benchHandler adds the one benchmark-owned route to the server's: its own
// process and system reading, so that allocation and CPU accounting is
// server-side only.
func benchHandler(sys *cloudviews.System, reg *obs.Registry, h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("GET /bench/stats", func(w http.ResponseWriter, r *http.Request) {
		rd := readSystem(sys, r.URL.Query().Get("gc") != "")
		// The server's request counters are labelled per tenant; the
		// benchmark needs the shed total.
		for name, v := range reg.Snapshot() {
			if strings.HasPrefix(name, "cvserve_shed_total") {
				rd.Counters["cvserve_shed_total"] += v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		// Encoding into a ResponseWriter fails only if the client went away.
		_ = json.NewEncoder(w).Encode(rd)
	})
	return mux
}

// served is a system listening on a loopback socket.
type served struct {
	*world
	srv      *server.Server
	handler  http.Handler
	listener net.Listener
	http     *http.Server
	done     chan error
}

// startServer builds serve_mixed's world (reuse_warm's, up to day D cooked)
// and serves it on a loopback port.
func startServer(cfg worldCfg) (*served, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.cookDay(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := newServer(w.sys, w.tmpl.VCNames(), reg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{world: w, srv: srv, listener: ln, done: make(chan error, 1)}
	s.handler = benchHandler(w.sys, reg, srv.Handler())
	s.http = &http.Server{Handler: s.handler}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *served) url() string { return "http://" + s.listener.Addr().String() }

// stop closes the listener and every connection, waits for the serve loop,
// and drains the system.
func (s *served) stop() error {
	err := s.http.Close()
	<-s.done
	if serr := s.srv.Shutdown(); err == nil {
		err = serr
	}
	return err
}

// serveChild is the server process of serve_mixed: it serves until its
// standard input closes, which is how the parent stops it.
func serveChild(c runCfg) error {
	d, _ := workloadByName("serve_mixed")
	s, err := startServer(worldCfg{seed: c.seed, onboard: d.onboard, size: c.size(d)})
	if err != nil {
		return err
	}
	fmt.Printf("READY %s\n", s.url())
	_, _ = io.Copy(io.Discard, os.Stdin)
	return s.stop()
}

// wireJob is a job ready to post: everything but the per-op fields
// pre-encoded, so the client spends little of the machine on JSON.
type wireJob struct {
	job    cloudviews.Job
	prefix []byte // `{"pipeline":…,"script":…,"params":{…}` without the closing brace
}

// wireParams converts parameters to what the protocol can carry: a time
// becomes its Unix nanoseconds as a number, which the server reads as a
// float and the engine compares with time columns numerically. Day
// boundaries are multiples of 512 ns and so exact in a float64.
func wireParams(in map[string]cloudviews.Value) map[string]cloudviews.Value {
	out := make(map[string]cloudviews.Value, len(in))
	for k, v := range in {
		if v.Kind == data.KindTime {
			v = data.Float(float64(v.I))
		}
		out[k] = v
	}
	return out
}

// newWireJob pre-encodes a job whose parameters are already in wire form.
func newWireJob(j cloudviews.Job) (wireJob, error) {
	params := make(map[string]any, len(j.Params))
	for k, v := range j.Params {
		if v.Kind != data.KindFloat {
			return wireJob{}, fmt.Errorf("job %s: parameter %s is %v, not in wire form", j.ID, k, v.Kind)
		}
		params[k] = v.F
	}
	blob, err := json.Marshal(server.SubmitRequest{
		Pipeline: j.Pipeline, User: j.User, Runtime: j.Runtime, Script: j.Script, Params: params,
	})
	if err != nil {
		return wireJob{}, err
	}
	return wireJob{job: j, prefix: blob[:len(blob)-1]}, nil
}

// body completes the request with the job's ID and submit time.
func (w wireJob) body(async bool) []byte {
	b := make([]byte, 0, len(w.prefix)+64)
	b = append(b, w.prefix...)
	b = append(b, `,"id":"`...)
	b = append(b, w.job.ID...)
	b = append(b, `","submit_unix":`...)
	b = strconv.AppendInt(b, w.job.Submit.Unix(), 10)
	if async {
		b = append(b, `,"async":true`...)
	}
	return append(b, '}')
}

// opKind is the request type of one op of serve_mixed.
type opKind int

const (
	kindRecurring opKind = iota
	kindAdhoc
	kindAsync
)

// kindOf draws op i's request type from the seed alone, so the mix does not
// depend on which client runs the op or when.
func kindOf(seed uint64, i int) opKind {
	x := seed*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	switch r := int(x % 100); {
	case r < adhocShare:
		return kindAdhoc
	case r < adhocShare+asyncShare:
		return kindAsync
	default:
		return kindRecurring
	}
}

// traffic is serve_mixed's request stream in wire form.
type traffic struct {
	seed      uint64
	stream    *stream
	recurring []wireJob
	adhoc     []wireJob
}

// newTraffic derives the stream from a template generator of its own: the
// client knows the scripts, not the server's state. Parameters take their
// wire form here, so warm-up, measured requests and the reference system all
// see the same values.
func newTraffic(cfg worldCfg, days int) (*traffic, error) {
	tmpl := workload.NewGenerator(catalog.New(), profileFor(cfg.size, templateSeed))
	if err := tmpl.Bootstrap(); err != nil {
		return nil, err
	}
	st := newStream(tmpl, cfg.size.primeDays+1, days, time.Second)
	for _, jobs := range [][]cloudviews.Job{st.recurring, st.adhoc} {
		for i := range jobs {
			jobs[i].Params = wireParams(jobs[i].Params)
		}
	}
	return &traffic{seed: cfg.seed, stream: st}, nil
}

// encode pre-encodes both pools, in the seeded order warmUp left them in.
func (t *traffic) encode() error {
	for _, set := range []struct {
		jobs []cloudviews.Job
		wire *[]wireJob
	}{{t.stream.recurring, &t.recurring}, {t.stream.adhoc, &t.adhoc}} {
		for _, j := range set.jobs {
			w, err := newWireJob(j)
			if err != nil {
				return err
			}
			*set.wire = append(*set.wire, w)
		}
	}
	return nil
}

// op returns op i's job in wire form with its ID and submit time set.
func (t *traffic) op(i int) (wireJob, opKind) {
	kind := kindOf(t.seed, i)
	var w wireJob
	if kind == kindAdhoc {
		w = t.adhoc[i%len(t.adhoc)]
		w.job.ID = opID('a', i)
	} else {
		w = t.recurring[i%len(t.recurring)]
		w.job.ID = opID('r', i)
	}
	w.job.Submit = t.stream.base.Add(time.Duration(i) * t.stream.step)
	return w, kind
}

// httpClient talks to one server over keep-alive connections, one per client.
type httpClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient(base string, conns int) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &httpClient{base: base, hc: &http.Client{Transport: tr}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 2xx body into out. Any other status is
// an error: with limits lifted the server has no reason to refuse.
func (c *httpClient) call(method, path, token string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	return json.Unmarshal(blob, out)
}

// submit performs one op over the socket: a sync post, or an async post and
// the long-poll for its result.
func (c *httpClient) submit(w wireJob, async bool) error {
	var resp server.JobStatusResponse
	token := tokenFor(w.job.VC)
	if err := c.call("POST", "/v1/jobs", token, w.body(async), &resp); err != nil {
		return err
	}
	if async {
		if err := c.call("GET", "/v1/jobs/"+w.job.ID+"?wait=1", token, nil, &resp); err != nil {
			return err
		}
	}
	if resp.Status != "done" || resp.Result == nil {
		return fmt.Errorf("job %s: status %q %s", w.job.ID, resp.Status, resp.Error)
	}
	return nil
}

// answer fetches a finished job's inline rows.
func (c *httpClient) answer(j cloudviews.Job) (answer, error) {
	var resp server.JobStatusResponse
	path := "/v1/jobs/" + j.ID + "?rows=" + strconv.Itoa(inlineRows)
	if err := c.call("GET", path, tokenFor(j.VC), nil, &resp); err != nil {
		return answer{}, err
	}
	if resp.Result == nil {
		return answer{}, fmt.Errorf("job %s: no result", j.ID)
	}
	a := answer{rows: resp.Result.Rows}
	if a.rows <= inlineRows {
		a.cells = resp.Result.Data
	}
	return a, nil
}

func (c *httpClient) stats(gc bool) (reading, error) {
	var r reading
	path := "/bench/stats"
	if gc {
		path += "?gc=1"
	}
	err := c.call("GET", path, adminToken, nil, &r)
	return r, err
}

// serveTarget is a prepared server with its client and traffic.
type serveTarget struct {
	client  *httpClient
	traffic *traffic
	local   *served // set when the server runs in this process
	stop    func() error
}

// setupServe brings up serve_mixed: the world behind internal/server on a
// loopback socket — in a child process unless local — and the warm-up passes
// sent over that socket, so the views are built from the same wire-form
// parameters the measured requests carry.
func setupServe(c *runCfg, cfg worldCfg, local bool, conns int) (*serveTarget, error) {
	t := &serveTarget{}
	var base string
	if local {
		s, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		t.local, t.stop, base = s, s.stop, s.url()
	} else {
		stop, url, err := startChild(c, cfg)
		if err != nil {
			return nil, err
		}
		t.stop, base = stop, url
	}
	t.client = newHTTPClient(base, conns)
	fail := func(err error) (*serveTarget, error) {
		t.client.close()
		_ = t.stop()
		return nil, err
	}
	tr, err := newTraffic(cfg, adhocDaysFor(c))
	if err != nil {
		return fail(err)
	}
	t.traffic = tr
	submit := func(j cloudviews.Job) error {
		w, err := newWireJob(j)
		if err != nil {
			return err
		}
		return t.client.submit(w, false)
	}
	if err := tr.stream.warmUp(cfg.seed, submit); err != nil {
		return fail(err)
	}
	if err := tr.encode(); err != nil {
		return fail(err)
	}
	return t, nil
}

func adhocDaysFor(c *runCfg) int {
	if c.smoke {
		return 4
	}
	return adhocDays
}

func (t *serveTarget) close() error {
	t.client.close()
	return t.stop()
}

// startChild re-executes this program as the server process and waits for it
// to report its address. The returned stop closes the child's standard
// input, which ends it, and waits for it to exit.
func startChild(c *runCfg, cfg worldCfg) (stop func() error, url string, err error) {
	args := []string{"-serve-child", "-seed", strconv.FormatUint(cfg.seed, 10)}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(c.self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, "", err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	stop = func() error {
		stdin.Close()
		return cmd.Wait()
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "READY ") {
		_ = stop()
		return nil, "", fmt.Errorf("server child did not start: %q %v", line, err)
	}
	return stop, strings.TrimSpace(strings.TrimPrefix(line, "READY ")), nil
}

// runServe runs serve_mixed.
func runServe(c *runCfg, d workloadDef) (*outcome, error) {
	cfg := worldCfg{seed: c.seed, onboard: d.onboard, size: c.size(d)}
	nc := serveClients()
	// The smoke run keeps the server in this process: tests must not depend
	// on re-executing the test binary.
	t, setupTimes, err := timeSetups(c.setups(),
		func() (*serveTarget, error) { return setupServe(c, cfg, c.smoke, nc) },
		func(t *serveTarget) { _ = t.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if t != nil {
			_ = t.close()
		}
	}()
	ref, err := newReference(cfg)
	if err != nil {
		return nil, err
	}
	if err := ref.cook(cfg.size.primeDays + 1); err != nil {
		return nil, err
	}
	out := &outcome{metrics: make(map[string]metric), notes: make(map[string]any)}

	share := 1.0
	if c.trace {
		share = 0.3
	}
	chk := newChecker(ref, nc)
	asyncLat := make([][]int64, nc)
	before, err := t.client.stats(true)
	if err != nil {
		return nil, err
	}
	lr := runClosed(nc, c.duration(share), c.maxOps(), func(client, i int) (int, time.Duration, error) {
		w, kind := t.traffic.op(i)
		t0 := time.Now()
		if err := t.client.submit(w, kind == kindAsync); err != nil {
			return 0, 0, err
		}
		if kind == kindAsync {
			asyncLat[client] = append(asyncLat[client], int64(time.Since(t0)))
		}
		if i%verifyEvery != 0 {
			return 1, 0, nil
		}
		// Fetching the rows is the benchmark's work, not the op's.
		v0 := time.Now()
		got, err := t.client.answer(w.job)
		if err != nil {
			return 0, 0, err
		}
		chk.add(client, pending{job: w.job, wire: got, limit: inlineRows})
		return 1, time.Since(v0), nil
	})
	after, err := t.client.stats(true)
	if err != nil {
		return nil, err
	}
	out.attempted = len(lr.samples) + lr.failed
	out.failed = lr.failed + chk.settle()
	if lr.jobs() == 0 {
		return nil, fmt.Errorf("%s: no request completed", d.name)
	}
	if !c.trace {
		out.metrics, out.notes = finish(d, nc, lr, before.Proc, after.Proc, setupTimes)
		return out, nil
	}

	loopLayer(out.metrics, d, lr)
	procLayer(out.metrics, lr, before.Proc, after.Proc)
	counterLayer(out.metrics, before, after, lr.jobs())
	var async []int64
	for _, a := range asyncLat {
		async = append(async, a...)
	}
	sort.Slice(async, func(a, b int) bool { return async[a] < async[b] })
	out.metrics["server.async_p50_us"] = metric{Value: float64(percentile(async, 50)) / 1e3, Unit: "us"}
	// With the limits lifted a shed request is a failed op; the ratio is
	// reported so that it is seen to be zero.
	shed := after.Counters["cvserve_shed_total"] - before.Counters["cvserve_shed_total"]
	out.metrics["server.shed_ratio"] = metric{Value: shed / float64(out.attempted), Unit: "ratio"}
	untracedRate := lr.throughput()

	op, err := openLoop(t, c.duration(0.2), out.attempted)
	if err != nil {
		return nil, err
	}
	out.attempted += op.attempted
	out.failed += op.failed
	for name, m := range op.metrics {
		out.metrics[name] = m
	}
	err = t.close()
	t = nil
	if err != nil {
		return nil, err
	}

	lt, err := setupServe(c, cfg, true, nc)
	if err != nil {
		return nil, err
	}
	defer func() { _ = lt.close() }()
	tp, err := tracedServe(c, lt, ref, nc, c.duration(0.5))
	if err != nil {
		return nil, err
	}
	out.attempted += tp.attempted
	out.failed += tp.failed
	out.spans = tp.spans
	compiles := 1 - out.metrics["core.plancache_hit_ratio"].Value
	fresh := float64(adhocShare) / 100
	out.counters = map[string]float64{
		// Only the ad-hoc fifth misses the level-1 plan cache.
		"runs.sqlparser.parse":   fresh,
		"runs.plan.bind":         fresh,
		"runs.optimizer.compile": compiles,
		"runs.signature.sign":    compiles,
		"runs.insights.fetch":    out.metrics["insights.fetches_per_job"].Value,
		"runs.storage.write":     out.metrics["optimizer.proposed_per_job"].Value,
	}
	tp.layerMetrics(out.metrics, out.counters)
	out.metrics["trace.overhead_ratio"] = metric{Value: tp.rate / untracedRate, Unit: "ratio"}
	naMetrics(out.metrics, "catalog.publish_us", "core.runday_us_per_job", "obs.on_off_ratio")
	return out, nil
}

// The three paths a traced serve_mixed op can take. Differences between their
// mean times separate the wire from the handler from the engine.
const (
	pathSocket = iota
	pathHandler
	pathEngine
	pathCount
)

var pathSpan = [pathCount]string{"path.socket", "path.handler", "path.engine"}

// tracedServe runs the traced pass of serve_mixed against a server in this
// process, sending op i down path i mod 3.
func tracedServe(c *runCfg, t *serveTarget, ref *reference, nc int, dur time.Duration) (*tracedPass, error) {
	t0 := time.Now()
	tp := &tracedPass{}
	sys := t.local.sys
	for i := 0; i < nc; i++ {
		tp.probers = append(tp.probers, newProber(sys.Engine(), newSpanLog(t0)))
	}
	chk := newChecker(ref, nc)
	lr := runClosed(nc, dur, c.maxOps(), func(client, i int) (int, time.Duration, error) {
		p := tp.probers[client]
		w, _ := t.traffic.op(i)
		path := i % pathCount
		got := pending{job: w.job, limit: inlineRows}
		var err error
		start := time.Since(t0)
		switch path {
		case pathSocket:
			err = t.client.submit(w, false)
		case pathHandler:
			req := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(w.body(false)))
			req.Header.Set("Authorization", "Bearer "+tokenFor(w.job.VC))
			rec := httptest.NewRecorder()
			t.local.handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("handler: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
		case pathEngine:
			var res *cloudviews.JobResult
			if res, err = sys.SubmitScript(w.job); err == nil {
				got.table = res.Output
			}
		}
		end := time.Since(t0)
		p.log.add(w.job.ID, rootSpan, "", start, end)
		p.log.add(w.job.ID, pathSpan[path], "", start, end)
		if err != nil {
			return 0, 0, err
		}
		if path != pathEngine {
			if got.wire, err = t.client.answer(w.job); err != nil {
				return 0, 0, err
			}
		}
		chk.add(client, got)
		return 1, 0, p.job(w.job.ID, w.job)
	})
	tp.collect(lr, chk)
	tp.afterLoop(sys)
	stats := spanStats(tp.spans)
	mean := func(path int) float64 {
		if st := stats[pathSpan[path]]; st != nil {
			return st.meanUs
		}
		return 0
	}
	tp.extra["server.wire_us"] = metric{Value: mean(pathSocket) - mean(pathHandler), Unit: "us"}
	tp.extra["server.handler_self_us"] = metric{Value: mean(pathHandler) - mean(pathEngine), Unit: "us"}
	return tp, nil
}
