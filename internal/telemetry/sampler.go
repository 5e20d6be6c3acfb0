package telemetry

import (
	"math"
	"sort"
)

// Sampler is the health pipeline's one sampling mechanism: ring-buffer series
// created the first time a name is sampled, and the rule list that judges
// them. The engine's Collector, cvserve's request-metric sampler and each of
// the guard's per-VC kill switches hold one. It is not safe for concurrent
// use: each holder already serializes its samples under its own lock.
type Sampler struct {
	capacity int
	watchdog *Watchdog
	series   map[string]*Series
	lastDay  int
}

// NewSampler returns an empty sampler whose series retain `capacity` points
// each and whose samples are judged by `rules`, in order.
func NewSampler(capacity int, rules []Rule) *Sampler {
	return &Sampler{
		capacity: capacity,
		watchdog: NewWatchdog(rules),
		series:   make(map[string]*Series),
		lastDay:  math.MinInt,
	}
}

// Sample appends one point per value (names in sorted order, creating a series
// the first time its name appears), evaluates the rules and returns the day's
// alerts. Only series sampled for `day` are judged. Days must not decrease;
// a holder that takes the day from outside the program checks LastDay first.
func (s *Sampler) Sample(day int, values map[string]float64) []Alert {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ser, ok := s.series[name]
		if !ok {
			ser = NewSeries(name, s.capacity)
			s.series[name] = ser
		}
		ser.Append(day, values[name])
	}
	s.lastDay = day
	return s.watchdog.Evaluate(day, s.series)
}

// LastDay returns the day of the most recent sample (math.MinInt before the
// first).
func (s *Sampler) LastDay() int { return s.lastDay }

// Snapshot copies every series, sorted by name (nil while there are none).
func (s *Sampler) Snapshot() []SeriesSnapshot {
	var out []SeriesSnapshot
	for _, ser := range s.series {
		out = append(out, ser.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
