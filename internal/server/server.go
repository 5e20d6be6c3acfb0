// Package server is the cvserve multi-tenant network front end: a stdlib
// net/http service wrapping a cloudviews.System with per-VC bearer-token
// authentication, token-bucket rate limiting, and queue-depth admission
// control that sheds load with 429 before the async submission workers
// saturate.
//
// Shedding is side-effect-free by construction: authentication, rate, and
// admission checks all run before the request touches the System, so a shed
// or rejected request consumes no job sequence number, moves no system
// metric, and writes no repository record — the accepted stream behaves
// byte-identically with or without the rejected traffic around it.
//
// Shutdown ordering is: stop accepting (new submissions get 503) → drain
// the async workers (System.Close, the flush guarantee) → close the storage
// engine (Config.CloseStorage). See Server.Shutdown.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudviews"
	"cloudviews/internal/obs"
	"cloudviews/internal/telemetry"
)

// Config assembles a Server.
type Config struct {
	// System is the wrapped deployment (required). The server owns its
	// shutdown: call Server.Shutdown, not System.Close.
	System *cloudviews.System
	// Tokens maps bearer token → VC. A request authenticated with a VC's
	// token may submit to and poll jobs of that VC only.
	Tokens map[string]string
	// AdminToken unlocks /admin endpoints and cross-tenant access
	// (empty disables them).
	AdminToken string
	// Rate is every tenant's token-bucket refill in submissions per second
	// (0 or negative = unlimited).
	Rate float64
	// Burst is the bucket capacity (0 or negative = max(1, Rate)).
	Burst float64
	// MaxQueuedPerTenant bounds one VC's in-flight submissions — queued
	// plus running, async and sync alike (0 = 64, negative admits nothing).
	MaxQueuedPerTenant int
	// MaxQueued bounds total in-flight submissions across tenants
	// (0 = 1024, negative = unbounded).
	MaxQueued int
	// Metrics receives the server's request metrics (nil = a fresh
	// registry). This is deliberately separate from the System's registry:
	// shed traffic must never move a system metric.
	Metrics *obs.Registry
	// CloseStorage, when set, is invoked by Shutdown after the workers
	// have drained — the last step of the shutdown ordering (e.g. closing
	// a durable storage engine).
	CloseStorage func() error
	// EnablePprof mounts net/http/pprof under /admin/debug/pprof/...
	// (admin token required). Off by default: profiles expose script text
	// and memory contents.
	EnablePprof bool

	// Test seams, set only by this package's tests.
	now            func() time.Time // the rate limiter's clock (nil = time.Now)
	maxTrackedJobs int              // the poll-by-ID registry's cap (0 = maxTrackedJobs)
	sloRules       []telemetry.Rule // the SLO watchdog's rules (nil = telemetry.ServerRules())
}

const (
	// retryAfterSec is advertised on queue-shed 429s and draining 503s.
	// Rate-shed 429s compute the actual token wait instead.
	retryAfterSec = 1
	// maxTrackedJobs bounds the completed-job registry; the oldest
	// completed entries are evicted first.
	maxTrackedJobs = 16384
)

// jobEntry tracks one accepted submission for poll-by-ID.
type jobEntry struct {
	vc      string
	pending *cloudviews.Pending // nil for sync submissions
	res     *cloudviews.JobResult
	err     error
}

// Server is the HTTP front end. Create with New, mount Handler, stop with
// Shutdown.
type Server struct {
	cfg  Config
	sys  *cloudviews.System
	auth *authenticator
	lim  *limiter
	adm  *admission
	reg  *obs.Registry

	mu       sync.Mutex
	jobs     map[string]*jobEntry
	jobOrder []string // insertion order, for bounded eviction
	draining bool

	slo *sloSampler

	// tenants maps a tenant or VC name to its *tenantSeries.
	tenants sync.Map

	// wg tracks the per-async-job release goroutines so Shutdown can wait
	// for the bookkeeping to settle after the workers drain.
	wg sync.WaitGroup
}

// New builds a Server around cfg.System.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, errors.New("server: Config.System is required")
	}
	if cfg.MaxQueuedPerTenant == 0 {
		cfg.MaxQueuedPerTenant = 64
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 1024
	}
	if cfg.maxTrackedJobs == 0 {
		cfg.maxTrackedJobs = maxTrackedJobs
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := &Server{
		cfg:  cfg,
		sys:  cfg.System,
		auth: newAuthenticator(cfg.Tokens, cfg.AdminToken),
		lim:  newLimiter(cfg.Rate, cfg.Burst),
		adm:  newAdmission(cfg.MaxQueued, cfg.MaxQueuedPerTenant),
		reg:  cfg.Metrics,
		jobs: make(map[string]*jobEntry),
	}
	s.slo = newSLOSampler(s.reg, cfg.sloRules)
	return s, nil
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /dash", s.handleDash)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/explain", s.handleJobExplain)
	mux.HandleFunc("GET /admin/explain", s.admin(s.handleAdminExplain))
	mux.HandleFunc("POST /admin/vcs/{vc}/onboard", s.admin(s.handleOnboard))
	mux.HandleFunc("POST /admin/vcs/{vc}/offboard", s.admin(s.handleOffboard))
	mux.HandleFunc("POST /admin/analyze", s.admin(s.handleAnalyze))
	mux.HandleFunc("POST /admin/runday", s.admin(s.handleRunDay))
	mux.HandleFunc("POST /admin/advance", s.admin(s.handleAdvance))
	mux.HandleFunc("POST /admin/slo/sample", s.admin(s.handleSLOSample))
	s.guardRoutes(mux)
	s.pprofRoutes(mux)
	return mux
}

// Shutdown executes the graceful stop: (1) stop accepting — every new
// submission is refused with 503 the moment this is called; (2) drain the
// async workers via System.Close, which returns only after every accepted
// job has completed; (3) close the storage engine. Idempotent; concurrent
// calls all block until the drain is done, and CloseStorage runs once.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()

	s.sys.Close() // blocks until every accepted async job has completed
	s.wg.Wait()   // then until the per-job bookkeeping has settled

	if first && s.cfg.CloseStorage != nil {
		return s.cfg.CloseStorage()
	}
	return nil
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tenantSeries is the handle to one tenant's (or target VC's) metric series,
// created on the tenant's first request. A submission bumps five of them;
// each is looked up in the registry by name once, by the request that first
// needs it, so /metrics lists a series from its first bump as it always has.
type tenantSeries struct {
	reg  *obs.Registry
	name string

	requests  atomic.Pointer[obs.Counter]
	accepted  atomic.Pointer[obs.Counter]
	completed atomic.Pointer[obs.Counter]
	failed    atomic.Pointer[obs.Counter]
	inflight  atomic.Pointer[obs.Gauge]
}

// series returns the handle for a tenant or VC name.
func (s *Server) series(name string) *tenantSeries {
	if t, ok := s.tenants.Load(name); ok {
		return t.(*tenantSeries)
	}
	t, _ := s.tenants.LoadOrStore(name, &tenantSeries{reg: s.reg, name: name})
	return t.(*tenantSeries)
}

// counter returns the tenant's series of one counter family, resolving it on
// first use (racing first users get the same counter from the registry).
func (t *tenantSeries) counter(slot *atomic.Pointer[obs.Counter], family string) *obs.Counter {
	if c := slot.Load(); c != nil {
		return c
	}
	c := t.reg.Counter(family + `{tenant="` + t.name + `"}`)
	slot.Store(c)
	return c
}

// addInflight moves the cvserve_inflight gauge of the VC.
func (t *tenantSeries) addInflight(d float64) {
	g := t.inflight.Load()
	if g == nil {
		g = t.reg.Gauge(`cvserve_inflight{vc="` + t.name + `"}`)
		t.inflight.Store(g)
	}
	g.Add(d)
}

// authenticate resolves the request's tenant, counting the attempt. A false
// return means the response has been written.
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (who *tenantSeries, admin bool, ok bool) {
	tenant, admin, ok := s.auth.tenant(r)
	if !ok {
		s.reg.Counter("cvserve_auth_failures_total").Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="cvserve"`)
		writeError(w, http.StatusUnauthorized, "", 0, "missing or unknown bearer token")
		return nil, false, false
	}
	who = s.series(tenant)
	who.counter(&who.requests, "cvserve_requests_total").Inc()
	return who, admin, true
}

// admin wraps a handler that requires the admin token.
func (s *Server) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, isAdmin, ok := s.authenticate(w, r)
		if !ok {
			return
		}
		if !isAdmin {
			writeError(w, http.StatusForbidden, "", 0, "admin token required")
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "", retryAfterSec, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"inflight": s.adm.inflight(),
		"views":    s.sys.ViewCount(),
	})
}

// handleMetrics serves the system and server registries concatenated in
// Prometheus text format. Metric families are disjoint (cloudviews_* vs
// cvserve_*), so the concatenation is itself a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if reg := s.sys.Metrics(); reg != nil {
		_ = reg.Export(w)
	}
	_ = s.reg.Export(w)
}

// handleDash serves the live cvdash HTML dashboard over the system's
// telemetry snapshot. Requires any valid token.
func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.authenticate(w, r); !ok {
		return
	}
	report := &telemetry.Report{
		Title: "cvserve live dashboard",
		Arms:  []telemetry.ArmReport{{Name: "live", Telemetry: s.sys.Telemetry()}},
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = fmt.Fprint(w, report.RenderHTML())
}

// handleSubmit is the front door: authenticate → rate limit → read and
// decode → validate → admission → hand to the System. Every rejection before
// the final step is side-effect-free for the System.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "", retryAfterSec, "server is draining")
		return
	}
	who, isAdmin, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	tenant := who.name

	// Rate limit on the authenticated tenant (not the target VC): the
	// bucket throttles the credential doing the talking.
	bucket := s.lim.bucket(tenant)
	if !bucket.allow(s.cfg.now()) {
		s.shed(w, tenant, "rate", bucket.retryAfter())
		return
	}

	sub, status, err := readSubmit(w, r)
	if err != nil {
		s.reg.Counter("cvserve_bad_requests_total").Inc()
		writeError(w, status, "", 0, "%v", err)
		return
	}
	job := sub.job
	vc := tenant
	if job.VC != "" && job.VC != tenant {
		if !isAdmin {
			writeError(w, http.StatusForbidden, "", 0, "token for %q cannot submit to VC %q", tenant, job.VC)
			return
		}
		vc = job.VC
	} else if isAdmin {
		if job.VC == "" {
			writeError(w, http.StatusBadRequest, "", 0, "admin submissions must name a vc")
			return
		}
		vc = job.VC
	}
	if job.Script == "" {
		s.reg.Counter("cvserve_bad_requests_total").Inc()
		writeError(w, http.StatusBadRequest, "", 0, "script is required")
		return
	}
	if sub.paramsErr != nil {
		s.reg.Counter("cvserve_bad_requests_total").Inc()
		writeError(w, http.StatusBadRequest, "", 0, "%v", sub.paramsErr)
		return
	}

	// Admission control: claim an in-flight slot before touching the
	// System; shed with Retry-After when the VC or server is saturated.
	if !s.adm.tryAcquire(vc) {
		s.shed(w, vc, "queue", retryAfterSec)
		return
	}
	target := who
	if vc != tenant {
		target = s.series(vc) // an admin submitting on a VC's behalf
	}
	target.addInflight(1)

	job.VC = vc

	if sub.async {
		s.submitAsync(w, job, target)
		return
	}
	s.submitSync(w, job, target)
}

// shed records and writes one load-shed 429.
func (s *Server) shed(w http.ResponseWriter, tenant, reason string, wait float64) {
	if wait <= 0 {
		wait = retryAfterSec
	}
	s.reg.Counter(`cvserve_shed_total{reason="` + reason + `",tenant="` + tenant + `"}`).Inc()
	writeError(w, http.StatusTooManyRequests, reason, wait,
		"submission shed (%s limit); retry after %.1fs", reason, wait)
}

// releaseSlot returns vc's admission slot and inflight gauge.
func (s *Server) releaseSlot(vc *tenantSeries) {
	s.adm.release(vc.name)
	vc.addInflight(-1)
}

func (s *Server) submitAsync(w http.ResponseWriter, job cloudviews.Job, vc *tenantSeries) {
	p, err := s.sys.SubmitScriptAsync(job)
	if err != nil {
		s.releaseSlot(vc)
		if errors.Is(err, cloudviews.ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, "", retryAfterSec, "system is closed")
			return
		}
		s.reg.Counter("cvserve_bad_requests_total").Inc()
		writeError(w, http.StatusBadRequest, "", 0, "%v", err)
		return
	}
	vc.counter(&vc.accepted, "cvserve_accepted_total").Inc()
	entry := &jobEntry{vc: vc.name, pending: p}
	s.trackJob(p.ID(), entry)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-p.Done()
		res, jerr := p.Wait()
		s.mu.Lock()
		entry.res, entry.err = res, jerr
		s.mu.Unlock()
		s.releaseSlot(vc)
		vc.countOutcome(jerr)
	}()
	writeJSON(w, http.StatusAccepted, JobStatusResponse{ID: p.ID(), VC: vc.name, Status: "queued"})
}

func (s *Server) submitSync(w http.ResponseWriter, job cloudviews.Job, vc *tenantSeries) {
	res, err := s.sys.SubmitScript(job)
	vc.counter(&vc.accepted, "cvserve_accepted_total").Inc()
	vc.countOutcome(err)
	s.releaseSlot(vc)
	if err != nil {
		// Accepted but failed in compile/bind/execute: the job consumed
		// its ID; report 422 so clients can tell a script bug from a
		// malformed request.
		writeError(w, http.StatusUnprocessableEntity, "", 0, "%v", err)
		return
	}
	s.trackJob(res.ID, &jobEntry{vc: vc.name, res: res})
	writeJSON(w, http.StatusOK, JobStatusResponse{
		ID: res.ID, VC: vc.name, Status: "done", Result: summarize(res, 0),
	})
}

// countOutcome bumps the tenant's completion counters.
func (t *tenantSeries) countOutcome(err error) {
	if err != nil {
		t.counter(&t.failed, "cvserve_jobs_failed_total").Inc()
		return
	}
	t.counter(&t.completed, "cvserve_jobs_completed_total").Inc()
}

// trackJob registers an entry for poll-by-ID, evicting the oldest completed
// entries beyond the cap. It makes one pass over the queue: an unfinished
// victim goes back to the tail, so it stays evictable once it completes, and
// the registry exceeds the cap only by jobs still running.
func (s *Server) trackJob(id string, e *jobEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[id] = e
	s.jobOrder = append(s.jobOrder, id)
	for n := len(s.jobOrder); n > 0 && len(s.jobs) > s.cfg.maxTrackedJobs; n-- {
		victim := s.jobOrder[0]
		s.jobOrder = s.jobOrder[1:]
		if old, ok := s.jobs[victim]; ok && old.pending != nil && !isDone(old.pending) {
			s.jobOrder = append(s.jobOrder, victim)
		} else {
			delete(s.jobs, victim) // a no-op for a reused ID evicted already
		}
	}
}

func isDone(p *cloudviews.Pending) bool {
	select {
	case <-p.Done():
		return true
	default:
		return false
	}
}

// lookupJob fetches an entry, enforcing tenant ownership (admin sees all).
// A false return means the response has been written.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request, tenant string, admin bool) (*jobEntry, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	e, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok || (!admin && e.vc != tenant) {
		// Unknown and unauthorized are indistinguishable on purpose: job
		// IDs are auto-assigned and guessable across tenants.
		writeError(w, http.StatusNotFound, "", 0, "unknown job %q", id)
		return nil, false
	}
	return e, true
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	who, admin, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	e, ok := s.lookupJob(w, r, who.name, admin)
	if !ok {
		return
	}
	if e.pending != nil && r.URL.Query().Get("wait") != "" {
		// Bounded long-poll: the FIFO worker finishes the job or the
		// client retries.
		select {
		case <-e.pending.Done():
		case <-r.Context().Done():
			return
		case <-time.After(30 * time.Second):
		}
	}
	rows := 0
	if v := r.URL.Query().Get("rows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "", 0, "invalid rows=%q", v)
			return
		}
		rows = min(n, maxInlineRows)
	}
	res, jerr, status := s.resolve(e)
	resp := JobStatusResponse{ID: r.PathValue("id"), VC: e.vc, Status: status}
	if jerr != nil {
		resp.Error = jerr.Error()
	}
	if res != nil {
		resp.Result = summarize(res, rows)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	who, admin, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	e, ok := s.lookupJob(w, r, who.name, admin)
	if !ok {
		return
	}
	res, jerr, status := s.resolve(e)
	if status == "queued" {
		writeError(w, http.StatusConflict, "", 0, "job %q is still %s", r.PathValue("id"), status)
		return
	}
	if jerr != nil {
		writeError(w, http.StatusUnprocessableEntity, "", 0, "job failed: %v", jerr)
		return
	}
	if res.Trace == nil {
		writeError(w, http.StatusNotFound, "", 0, "tracing is disabled on this system")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, res.Trace.Render())
}

// resolve returns an entry's result, error, and lifecycle status.
func (s *Server) resolve(e *jobEntry) (*cloudviews.JobResult, error, string) {
	s.mu.Lock()
	res, jerr := e.res, e.err
	p := e.pending
	s.mu.Unlock()
	if res == nil && jerr == nil && p != nil {
		if !isDone(p) {
			return nil, nil, "queued"
		}
		res, jerr = p.Wait()
	}
	if jerr != nil {
		return nil, jerr, "failed"
	}
	return res, nil, "done"
}

func (s *Server) handleOnboard(w http.ResponseWriter, r *http.Request) {
	vc := r.PathValue("vc")
	s.sys.OnboardVC(vc)
	writeJSON(w, http.StatusOK, map[string]string{"vc": vc, "cloudviews": "enabled"})
}

func (s *Server) handleOffboard(w http.ResponseWriter, r *http.Request) {
	vc := r.PathValue("vc")
	// Blocks until the VC's queued jobs drain (see System.OffboardVC);
	// the tenant can keep submitting afterwards, without CloudViews.
	s.sys.OffboardVC(vc)
	writeJSON(w, http.StatusOK, map[string]string{"vc": vc, "cloudviews": "disabled"})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", 0, "invalid JSON body: %v", err)
		return
	}
	if req.WindowHours <= 0 {
		req.WindowHours = 24
	}
	window, ok := durationOf(req.WindowHours, time.Hour)
	if !ok {
		writeError(w, http.StatusBadRequest, "", 0, "window_hours out of range")
		return
	}
	tagged := s.sys.Analyze(window)
	writeJSON(w, http.StatusOK, AnalyzeResponse{TemplatesTagged: tagged})
}

func (s *Server) handleRunDay(w http.ResponseWriter, r *http.Request) {
	var req RunDayRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", 0, "invalid JSON body: %v", err)
		return
	}
	jobs := make([]cloudviews.Job, 0, len(req.Jobs))
	for i := range req.Jobs {
		job, err := req.Jobs[i].job()
		if err != nil {
			writeError(w, http.StatusBadRequest, "", 0, "job %d: %v", i, err)
			return
		}
		jobs = append(jobs, job)
	}
	// RunDay assumes no concurrent submissions; drain the workers first.
	s.sys.Drain()
	dm, err := s.sys.RunDay(req.Day, jobs)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "", 0, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, dm)
}

// durationOf converts n units to a Duration, refusing a product that is not
// finite or does not fit an int64 of nanoseconds: the conversion would wrap,
// and a wrapped advance moves the simulated clock backwards.
func durationOf(n float64, unit time.Duration) (time.Duration, bool) {
	ns := n * float64(unit)
	if math.IsNaN(ns) || ns >= math.MaxInt64 || ns <= math.MinInt64 {
		return 0, false
	}
	return time.Duration(ns), true
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", 0, "invalid JSON body: %v", err)
		return
	}
	if req.Seconds < 0 {
		writeError(w, http.StatusBadRequest, "", 0, "seconds must be >= 0")
		return
	}
	d, ok := durationOf(req.Seconds, time.Second)
	if !ok {
		writeError(w, http.StatusBadRequest, "", 0, "seconds out of range")
		return
	}
	s.sys.AdvanceClock(d)
	writeJSON(w, http.StatusOK, map[string]string{
		"clock": s.sys.Clock().UTC().Format(time.RFC3339),
	})
}

func (s *Server) handleSLOSample(w http.ResponseWriter, r *http.Request) {
	var req SLOSampleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "", 0, "invalid JSON body: %v", err)
		return
	}
	alerts, ok := s.slo.sample(req.Day)
	if !ok {
		writeError(w, http.StatusConflict, "", 0, "day %d is before the last sampled day", req.Day)
		return
	}
	resp := SLOSampleResponse{Day: req.Day, Verdict: telemetry.Verdict(alerts)}
	for _, a := range alerts {
		resp.Alerts = append(resp.Alerts, a.String())
	}
	writeJSON(w, http.StatusOK, resp)
}
