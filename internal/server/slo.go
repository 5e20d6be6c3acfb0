package server

// SLO sampling over the server's request metrics. Each sample snapshots the
// registry, converts cumulative counters into per-interval deltas and hands
// the values to a telemetry.Sampler — the same series and rule engine the
// feedback-loop health pipeline uses — judged by telemetry.ServerRules.

import (
	"strings"
	"sync"

	"cloudviews/internal/obs"
	"cloudviews/internal/telemetry"
)

// sloSeriesCapacity bounds each sampled series (ring buffer, in days).
const sloSeriesCapacity = 90

type sloSampler struct {
	mu      sync.Mutex
	reg     *obs.Registry
	sampler *telemetry.Sampler
	prev    map[string]float64 // last raw snapshot, for counter deltas
}

func newSLOSampler(reg *obs.Registry, rules []telemetry.Rule) *sloSampler {
	if rules == nil {
		rules = telemetry.ServerRules()
	}
	return &sloSampler{
		reg:     reg,
		sampler: telemetry.NewSampler(sloSeriesCapacity, rules),
		prev:    make(map[string]float64),
	}
}

// cumulative reports whether a snapshot entry is a monotonically increasing
// total (sampled as a delta) rather than a level (sampled raw).
func cumulative(name string) bool {
	fam := name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		fam = name[:i]
	}
	return strings.HasSuffix(fam, "_total") || strings.HasSuffix(fam, "_count") || strings.HasSuffix(fam, "_sum")
}

// sample records one evaluation tick and returns its alerts. The day comes
// from an admin request: one lower than the last accepted day is refused
// (ok false) before anything — series, references, delta baseline — moves.
func (s *sloSampler) sample(day int) (alerts []telemetry.Alert, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if day < s.sampler.LastDay() {
		return nil, false
	}
	values := s.reg.Snapshot()
	for name, v := range values {
		if cumulative(name) {
			values[name] = v - s.prev[name]
			s.prev[name] = v
		}
	}
	return s.sampler.Sample(day, values), true
}
