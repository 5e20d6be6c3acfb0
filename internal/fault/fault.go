// Package fault is the deterministic fault-injection framework behind the
// chaos-testing story of the reproduction. The paper's core operational
// lesson is that computation reuse must be safe to run inline in customer
// jobs: containers fail, bonus resources get preempted, and view artifacts
// break, and none of that may fail (or meaningfully slow) a job beyond the
// no-reuse baseline. This package makes those failures reproducible.
//
// Design constraints, in order:
//
//   - Deterministic: an injection decision is a pure function of
//     (seed, point, key) — a splitmix-style hash mapped to [0,1) and compared
//     against the point's configured rate. No shared RNG stream exists, so
//     decisions are independent of goroutine interleaving and the same seed
//     replays the exact same fault schedule.
//   - Simulated time only: the injector never reads the wall clock; retry
//     backoff is computed in simulated time by the call sites.
//   - Free when disabled: a nil *Injector no-ops every method behind a single
//     nil check, and call sites only build decision keys after that check, so
//     the default (fault-free) path allocates nothing and computes nothing.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cloudviews/internal/data"
	"cloudviews/internal/obs"
)

// Point names one fault-injection site in the pipeline.
type Point string

// The injection sites wired through the stack.
const (
	// StageFail fails one attempt of a cluster stage (container/stage
	// failure); the scheduler retries with capped exponential backoff.
	StageFail Point = "cluster.stage.fail"
	// BonusPreempt preempts a stage's opportunistic (bonus) containers
	// mid-stage; their work is discarded and re-run on guaranteed tokens.
	BonusPreempt Point = "cluster.bonus.preempt"
	// SpoolWrite fails the materialization write of a staged view; the job
	// continues and the artifact is abandoned (consumers never see it).
	SpoolWrite Point = "storage.spool.write"
	// ViewRead fails the read of a sealed view artifact; the executor
	// transparently recomputes the subexpression instead.
	ViewRead Point = "storage.view.read"
	// JobFail crashes a job attempt after execution (container/job-manager
	// loss); the engine abandons staged views, releases locks, and retries
	// with a full recompile.
	JobFail Point = "core.job.fail"

	// DurableCrashAppend kills the durable storage engine in the window
	// between a WAL append and the in-memory apply: the record is on disk
	// but its effects never became visible. Recovery must replay it.
	DurableCrashAppend Point = "durable.crash.append"
	// DurableCrashTorn kills the durable storage engine mid-append: only a
	// prefix of the record's frame reaches the WAL. Recovery must detect
	// the torn tail, truncate it, and proceed without the record.
	DurableCrashTorn Point = "durable.crash.torn"
	// DurableCrashSnapshot kills the durable storage engine after writing
	// the temporary snapshot file but before the atomic rename: recovery
	// must ignore the stray temp file and replay from the previous
	// snapshot + full WAL.
	DurableCrashSnapshot Point = "durable.crash.snapshot"
)

// Points lists every injection site in a stable order.
var Points = []Point{StageFail, BonusPreempt, SpoolWrite, ViewRead, JobFail,
	DurableCrashAppend, DurableCrashTorn, DurableCrashSnapshot}

// specAliases maps the short names accepted by ParseSpec (and the cvsim
// -faults flag) to points.
var specAliases = map[string]Point{
	"stage":        StageFail,
	"preempt":      BonusPreempt,
	"spool":        SpoolWrite,
	"read":         ViewRead,
	"job":          JobFail,
	"crash-append": DurableCrashAppend,
	"crash-torn":   DurableCrashTorn,
	"crash-snap":   DurableCrashSnapshot,
}

// The recovery policy around injected faults. It is deliberately small so
// that even a rate-1.0 chaos mix converges in bounded simulated time.
const (
	// DefaultMaxStageAttempts bounds attempts per cluster stage; the final
	// attempt is never failed, so stages always complete.
	DefaultMaxStageAttempts = 4
	// DefaultStageRetryBudget bounds total stage retries per job, modeling
	// the job manager escalating to reliable resources once a job has been
	// hit too often.
	DefaultStageRetryBudget = 8
	// DefaultMaxJobAttempts bounds whole-job attempts; the final attempt is
	// never crashed, so injected faults cannot permanently fail a job.
	DefaultMaxJobAttempts = 3
	// DefaultRetryBackoff / DefaultRetryBackoffCap shape the capped
	// exponential backoff (in simulated time) charged between retries.
	DefaultRetryBackoff    = 2 * time.Second
	DefaultRetryBackoffCap = 30 * time.Second
)

// Config configures fault injection. The zero value disables everything.
type Config struct {
	// Seed keys the deterministic decision hash. Zero is a valid seed.
	Seed uint64
	// Rates maps each injection point to its per-decision probability in
	// [0, 1]. Absent or non-positive rates disable the point.
	Rates map[Point]float64

	// Filter, when set, restricts injection to decisions it approves: a
	// point only fires when Filter(point, key) returns true. It is a
	// programmatic hook for tests and experiments that need targeted fault
	// storms (e.g. only view reads whose artifact path belongs to one VC,
	// or only during a storm window flagged by the driver); it does not
	// round-trip through ParseSpec/Spec.
	Filter func(p Point, key string) bool
}

// Enabled reports whether any point has a positive rate.
func (c Config) Enabled() bool {
	for _, r := range c.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}

// Backoff returns the capped exponential backoff after the given failed
// attempt (1-based): DefaultRetryBackoff * 2^(attempt-1), clamped to
// DefaultRetryBackoffCap.
func Backoff(attempt int) time.Duration {
	d := DefaultRetryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= DefaultRetryBackoffCap {
			return DefaultRetryBackoffCap
		}
	}
	return d
}

// ParseSpec parses a comma-separated rate spec like
// "stage=0.05,preempt=0.2,spool=0.1,read=0.1,job=0.02". Keys may be the
// short aliases above or full point names; values are probabilities in
// [0, 1]. An empty spec yields a disabled config.
func ParseSpec(spec string) (Config, error) {
	cfg := Config{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	cfg.Rates = make(map[Point]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Config{}, fmt.Errorf("fault: bad spec entry %q (want point=rate)", part)
		}
		key := strings.TrimSpace(kv[0])
		if key == "seed" {
			seed, err := strconv.ParseUint(strings.TrimSpace(kv[1]), 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("fault: bad seed %q", kv[1])
			}
			cfg.Seed = seed
			continue
		}
		p, ok := specAliases[key]
		if !ok {
			p = Point(key)
			found := false
			for _, known := range Points {
				if p == known {
					found = true
					break
				}
			}
			if !found {
				return Config{}, fmt.Errorf("fault: unknown point %q", key)
			}
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || rate < 0 || rate > 1 {
			return Config{}, fmt.Errorf("fault: bad rate %q for %s (want 0..1)", kv[1], p)
		}
		cfg.Rates[p] = rate
	}
	return cfg, nil
}

// Spec renders the rates back into ParseSpec form (alias keys, sorted), for
// echoing the active configuration.
func (c Config) Spec() string {
	byPoint := make(map[Point]string, len(specAliases))
	for alias, p := range specAliases {
		byPoint[p] = alias
	}
	var parts []string
	for p, r := range c.Rates {
		if r <= 0 {
			continue
		}
		name := byPoint[p]
		if name == "" {
			name = string(p)
		}
		parts = append(parts, name+"="+strconv.FormatFloat(r, 'g', -1, 64))
	}
	sort.Strings(parts)
	if c.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatUint(c.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// InjectedError marks an error as an injected fault, so recovery code can
// distinguish chaos from genuine bugs.
type InjectedError struct {
	Point Point
	Key   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s at %q", e.Point, e.Key)
}

// Injector makes injection decisions. All methods are safe on a nil receiver
// (they report "no fault"), safe for concurrent use, and read no mutable
// shared state on the decision path.
type Injector struct {
	seed   uint64
	rates  map[Point]float64
	filter func(p Point, key string) bool
	counts map[Point]*atomic.Int64

	// metrics, when wired via SetMetrics; nil-safe no-ops otherwise.
	mTotal  *obs.Counter
	mPoints map[Point]*obs.Counter
}

// New builds an injector for the config, or returns nil when every rate is
// zero — so the disabled case is a nil receiver everywhere downstream.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	inj := &Injector{
		seed:   cfg.Seed,
		rates:  make(map[Point]float64, len(cfg.Rates)),
		filter: cfg.Filter,
		counts: make(map[Point]*atomic.Int64, len(Points)),
	}
	for p, r := range cfg.Rates {
		if r > 0 {
			inj.rates[p] = r
		}
	}
	for _, p := range Points {
		inj.counts[p] = &atomic.Int64{}
	}
	return inj
}

// SetMetrics registers cloudviews_faults_injected_total (plus one labeled
// series per point) with a registry. Call before serving traffic; metric
// families are only created when faults are enabled, keeping the default
// export byte-identical to a fault-free build.
func (i *Injector) SetMetrics(r *obs.Registry) {
	if i == nil || r == nil {
		return
	}
	i.mTotal = r.Counter("cloudviews_faults_injected_total")
	i.mPoints = make(map[Point]*obs.Counter, len(i.rates))
	for p := range i.rates {
		i.mPoints[p] = r.Counter(`cloudviews_faults_injected_point_total{point="` + string(p) + `"}`)
	}
}

// Enabled reports whether the point has a positive rate.
func (i *Injector) Enabled(p Point) bool {
	return i != nil && i.rates[p] > 0
}

// Should decides whether to inject a fault at point p for the given decision
// key. The key must uniquely identify the decision (job ID, stage index,
// attempt number, signature...) so that retries re-roll and concurrent
// interleavings cannot change the schedule.
func (i *Injector) Should(p Point, key string) bool {
	if i == nil {
		return false
	}
	rate, ok := i.rates[p]
	if !ok || rate <= 0 {
		return false
	}
	if i.filter != nil && !i.filter(p, key) {
		return false
	}
	if i.roll(p, key) >= rate {
		return false
	}
	i.counts[p].Add(1)
	i.mTotal.Inc()
	i.mPoints[p].Inc()
	return true
}

// Err returns the typed error for an injected fault at (p, key).
func (i *Injector) Err(p Point, key string) error {
	return &InjectedError{Point: p, Key: key}
}

// Count returns how many faults have been injected at a point.
func (i *Injector) Count(p Point) int64 {
	if i == nil {
		return 0
	}
	return i.counts[p].Load()
}

// roll maps (seed, point, key) to a uniform value in [0, 1) via FNV-1a over
// the inputs followed by a splitmix64 finalizer (FNV alone avalanches poorly
// on short inputs).
func (i *Injector) roll(p Point, key string) float64 {
	return Hash01(i.seed, string(p), key)
}

// Hash01 maps (seed, parts...) to a uniform value in [0, 1): FNV-1a over the
// parts (0x1f-separated) followed by a splitmix64 finalizer. It is the shared
// deterministic decision hash of the stack — injection rolls and guard probe
// and ramp admission draw from it, so every "random" choice is a pure
// function of (seed, identity) and
// replays byte-identically regardless of goroutine interleaving.
func Hash01(seed uint64, parts ...string) float64 {
	h := seed ^ 0xcbf29ce484222325
	for i, part := range parts {
		if i > 0 {
			h = data.FNV64a(h, "\x1f")
		}
		h = data.FNV64a(h, part)
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
