package server

// SLO sampling over the server's request metrics. Each sample snapshots the
// registry, converts cumulative counters into per-interval deltas, appends
// the values to day-cadence series, and evaluates the cvserve watchdog
// rules (telemetry.ServerRules) against them — the same declarative
// machinery the feedback-loop health pipeline uses.

import (
	"strings"
	"sync"

	"cloudviews/internal/obs"
	"cloudviews/internal/telemetry"
)

// sloSeriesCapacity bounds each sampled series (ring buffer, in days).
const sloSeriesCapacity = 90

type sloSampler struct {
	mu       sync.Mutex
	reg      *obs.Registry
	watchdog *telemetry.Watchdog
	series   map[string]*telemetry.Series
	prev     map[string]float64 // last raw snapshot, for counter deltas
}

func newSLOSampler(reg *obs.Registry, rules []telemetry.Rule) *sloSampler {
	return &sloSampler{
		reg:      reg,
		watchdog: telemetry.NewWatchdog(rules),
		series:   make(map[string]*telemetry.Series),
		prev:     make(map[string]float64),
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

// sample records one evaluation tick and returns its alerts.
func (s *sloSampler) sample(day int) []telemetry.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.reg.Snapshot()
	for name, v := range snap {
		val := v
		if cumulative(name) {
			val = v - s.prev[name]
			s.prev[name] = v
		}
		ser, ok := s.series[name]
		if !ok {
			ser = telemetry.NewSeries(name, sloSeriesCapacity)
			s.series[name] = ser
		}
		ser.Append(day, val)
	}
	return s.watchdog.Evaluate(day, s.series)
}
