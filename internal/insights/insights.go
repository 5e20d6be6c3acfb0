// Package insights implements the CloudViews insights service: the
// operational component that serves view-selection output (annotations) to
// the compiler, indexed by job tags; hands out exclusive view-creation locks
// so exactly one job materializes each view; and exposes the multi-level
// enable/disable controls (job, virtual cluster, cluster, service) that §4 of
// the paper describes. In production this is an Azure-SQL-backed service with
// a cached serving layer and ~15 ms round trips; here it is in-process with
// the same protocol and a simulated latency the cluster model charges to
// compile time.
package insights

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/obs"
	"cloudviews/internal/signature"
)

// RoundTripLatency is the simulated serving-layer round trip charged to job
// compilation ("an end to round trip latency of around 15 milliseconds").
const RoundTripLatency = 15 * time.Millisecond

// Annotation tells the compiler that a recurring subexpression was selected
// for materialization and reuse, together with the expected statistics from
// workload analysis (used to cost the rewritten plan).
type Annotation struct {
	Recurring     signature.Sig `json:"recurring"`
	VC            string        `json:"vc"`
	ExpectedRows  int64         `json:"expectedRows"`
	ExpectedBytes int64         `json:"expectedBytes"`
	ExpectedWork  float64       `json:"expectedWork"`
	// Utility is the estimated total-compute saving used for ranking when a
	// per-job view cap applies.
	Utility float64 `json:"utility"`
}

// Service is the thread-safe insights service.
type Service struct {
	mu sync.RWMutex

	// annotations by job tag.
	byTag map[signature.Tag][]Annotation
	// cache simulates the cached serving layer: tags fetched at least once
	// are "warm".
	warm map[signature.Tag]bool

	// view-creation locks: strict signature -> holder job id.
	locks map[signature.Sig]string

	// Controls.
	serviceEnabled bool
	clusterEnabled map[string]bool // default false until set
	vcEnabled      map[string]bool

	// metrics, when wired via SetMetrics; nil-safe no-ops otherwise.
	mFetches    *obs.Counter
	mWarmHits   *obs.Counter
	mContention *obs.Counter
}

// NewService creates an enabled service with no annotations.
func NewService() *Service {
	return &Service{
		byTag:          make(map[signature.Tag][]Annotation),
		warm:           make(map[signature.Tag]bool),
		locks:          make(map[signature.Sig]string),
		serviceEnabled: true,
		clusterEnabled: make(map[string]bool),
		vcEnabled:      make(map[string]bool),
	}
}

// SetMetrics registers the service's counters with a registry. Call before
// serving traffic.
func (s *Service) SetMetrics(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mFetches = r.Counter("cloudviews_insights_fetches_total")
	s.mWarmHits = r.Counter("cloudviews_insights_warm_hits_total")
	s.mContention = r.Counter("cloudviews_insights_lock_contention_total")
}

// ---------------------------------------------------------------------------
// Controls (paper §4, "Multi-level control").

// SetServiceEnabled is the uber control used during customer incidents.
func (s *Service) SetServiceEnabled(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serviceEnabled = on
}

// SetClusterEnabled toggles an entire cluster.
func (s *Service) SetClusterEnabled(cluster string, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clusterEnabled[cluster] = on
}

// SetVCEnabled toggles one virtual cluster (the opt-in/opt-out unit).
func (s *Service) SetVCEnabled(vc string, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vcEnabled[vc] = on
}

// Enabled combines all four levels: service AND cluster AND vc AND job.
func (s *Service) Enabled(cluster, vc string, jobOptIn bool) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.serviceEnabled && s.clusterEnabled[cluster] && s.vcEnabled[vc] && jobOptIn
}

// DisabledReason is the explain-layer view of Enabled: it names the FIRST
// control level that disabled reuse ("service", "cluster", "vc", "job"), in
// the same precedence order Enabled evaluates, or "" when reuse is enabled.
// One lock acquisition answers both questions, so the compile path calls
// this instead of Enabled when it also needs provenance.
func (s *Service) DisabledReason(cluster, vc string, jobOptIn bool) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	switch {
	case !s.serviceEnabled:
		return "service"
	case !s.clusterEnabled[cluster]:
		return "cluster"
	case !s.vcEnabled[vc]:
		return "vc"
	case !jobOptIn:
		return "job"
	}
	return ""
}

// ---------------------------------------------------------------------------
// Annotation serving.

// sortAnnotations ranks annotations for serving: Utility descending, with
// the recurring signature and VC as tiebreakers. The sort must be stable and
// fully ordered — with a bare sort.Slice on Utility, equal-utility
// annotations served in map-iteration order, so a per-job view cap could
// pick different views run to run.
func sortAnnotations(anns []Annotation) []Annotation {
	sorted := append([]Annotation(nil), anns...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Utility != b.Utility {
			return a.Utility > b.Utility
		}
		if a.Recurring != b.Recurring {
			return a.Recurring < b.Recurring
		}
		return a.VC < b.VC
	})
	return sorted
}

// PublishAnnotations replaces the annotations for a tag. Called by the
// periodic workload-analysis job ("these tagged signatures are then polled by
// insights service and stored").
func (s *Service) PublishAnnotations(tag signature.Tag, anns []Annotation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byTag[tag] = sortAnnotations(anns)
	delete(s.warm, tag) // cache invalidated on republish
}

// ReplaceAllAnnotations atomically swaps in the full output of a workload-
// analysis run. Tags absent from the new output lose their annotations —
// the just-in-time property: a subexpression that stops appearing in the
// analyzed workload stops being selected, and therefore stops being
// materialized.
func (s *Service) ReplaceAllAnnotations(all map[signature.Tag][]Annotation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byTag = make(map[signature.Tag][]Annotation, len(all))
	for tag, anns := range all {
		s.byTag[tag] = sortAnnotations(anns)
	}
	s.warm = make(map[signature.Tag]bool)
}

// FetchAnnotations returns the annotations for a job's tag plus the simulated
// round-trip latency the compiler should charge (zero when the cached serving
// layer is warm).
func (s *Service) FetchAnnotations(tag signature.Tag) ([]Annotation, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mFetches.Inc()
	lat := RoundTripLatency
	if s.warm[tag] {
		s.mWarmHits.Inc()
		lat = time.Millisecond
	} else {
		s.warm[tag] = true
	}
	return append([]Annotation(nil), s.byTag[tag]...), lat
}

// TagCount returns the number of tags with published annotations.
func (s *Service) TagCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byTag)
}

// ExportAnnotationsFile renders the query-annotations debugging file for a
// tag ("in case of a customer incident, we can reproduce the compute reuse
// behavior by compiling a job with the annotations file").
func (s *Service) ExportAnnotationsFile(tag signature.Tag) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	anns, ok := s.byTag[tag]
	if !ok {
		return "", fmt.Errorf("insights: no annotations for tag %s", tag)
	}
	blob, err := json.MarshalIndent(map[string]any{
		"tag":         tag,
		"annotations": anns,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(blob), nil
}

// ImportAnnotationsFile loads a previously exported annotations file.
func (s *Service) ImportAnnotationsFile(blob string) (signature.Tag, error) {
	var decoded struct {
		Tag         signature.Tag `json:"tag"`
		Annotations []Annotation  `json:"annotations"`
	}
	if err := json.Unmarshal([]byte(blob), &decoded); err != nil {
		return "", fmt.Errorf("insights: invalid annotations file: %w", err)
	}
	s.PublishAnnotations(decoded.Tag, decoded.Annotations)
	return decoded.Tag, nil
}

// ---------------------------------------------------------------------------
// View-creation locks.

// AcquireViewLock grants the exclusive right to materialize a view. Only the
// first job touching a selected subexpression builds it; others proceed
// without the spool.
func (s *Service) AcquireViewLock(strict signature.Sig, jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if holder, held := s.locks[strict]; held {
		if holder != jobID {
			s.mContention.Inc()
		}
		return holder == jobID
	}
	s.locks[strict] = jobID
	return true
}

// ReleaseViewLock releases a held lock; returns false when jobID is not the
// holder.
func (s *Service) ReleaseViewLock(strict signature.Sig, jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.locks[strict] != jobID {
		return false
	}
	delete(s.locks, strict)
	return true
}

// LockCount returns the number of view-creation locks currently held. After
// a workload settles it must be zero: a leftover lock means some failure path
// skipped ReleaseViewLock and wedged the signature for every later producer.
func (s *Service) LockCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.locks)
}
