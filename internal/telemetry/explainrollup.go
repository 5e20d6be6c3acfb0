package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// ExplainRollup is the fleet-wide miss-reason rollup: per-day and per-VC
// counts of reuse decisions that missed, by explain reason, plus the
// container-seconds each reason left on the table. It is JSON-friendly and
// deterministic — map keys serialize sorted (encoding/json sorts them) and
// Days is ordered — so the rollup can be diffed across runs and uploaded as
// a CI artifact.
type ExplainRollup struct {
	// TotalMiss and TotalForfeitSec aggregate every day, by reason.
	TotalMiss       map[string]int     `json:"total_miss"`
	TotalForfeitSec map[string]float64 `json:"total_forfeit_sec"`
	Days            []ExplainDay       `json:"days"`
}

// ExplainDay is one day's slice of the rollup.
type ExplainDay struct {
	Day        int                  `json:"day"`
	Miss       map[string]int       `json:"miss"`
	ForfeitSec map[string]float64   `json:"forfeit_sec,omitempty"`
	VCs        map[string]ExplainVC `json:"vcs,omitempty"`
}

// ExplainVC is one VC's slice of a day.
type ExplainVC struct {
	Miss       map[string]int     `json:"miss"`
	ForfeitSec map[string]float64 `json:"forfeit_sec,omitempty"`
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BuildExplainRollup assembles the rollup from a telemetry snapshot. Days
// with no recorded decisions are omitted; a run with none at all yields
// empty (non-nil) totals. The per-day maps are the snapshot's own (it is
// immutable), not copies.
func BuildExplainRollup(rt *RunTelemetry) *ExplainRollup {
	out := &ExplainRollup{
		TotalMiss:       make(map[string]int),
		TotalForfeitSec: make(map[string]float64),
	}
	if rt == nil {
		return out
	}
	for _, d := range rt.Days {
		if len(d.MissReasons) == 0 {
			continue
		}
		ed := ExplainDay{Day: d.Day, Miss: d.MissReasons, ForfeitSec: d.ForfeitSec}
		for reason, n := range d.MissReasons {
			out.TotalMiss[reason] += n
		}
		for reason, sec := range d.ForfeitSec {
			out.TotalForfeitSec[reason] += sec
		}
		for _, vc := range d.VCNames {
			agg := d.VCs[vc]
			if len(agg.MissReasons) == 0 {
				continue
			}
			if ed.VCs == nil {
				ed.VCs = make(map[string]ExplainVC)
			}
			ed.VCs[vc] = ExplainVC{Miss: agg.MissReasons, ForfeitSec: agg.ForfeitSec}
		}
		out.Days = append(out.Days, ed)
	}
	return out
}

// RenderExplainText renders the rollup as a deterministic text figure:
// totals by reason (sorted), then the per-day table.
func (r *ExplainRollup) RenderExplainText() string {
	var b strings.Builder
	b.WriteString("REUSE MISS REASONS (fleet rollup)\n")
	reasons := make([]string, 0, len(r.TotalMiss))
	for reason := range r.TotalMiss {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	if len(reasons) == 0 {
		b.WriteString("  (no reuse misses recorded)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-22s %10s %14s\n", "reason", "misses", "forfeited-sec")
	for _, reason := range reasons {
		fmt.Fprintf(&b, "  %-22s %10d %14.1f\n", reason, r.TotalMiss[reason], r.TotalForfeitSec[reason])
	}
	fmt.Fprintf(&b, "  per-day:\n")
	for _, d := range r.Days {
		fmt.Fprintf(&b, "    day %02d:", d.Day)
		dayReasons := make([]string, 0, len(d.Miss))
		for reason := range d.Miss {
			dayReasons = append(dayReasons, reason)
		}
		sort.Strings(dayReasons)
		for _, reason := range dayReasons {
			fmt.Fprintf(&b, " %s=%d", reason, d.Miss[reason])
		}
		b.WriteString("\n")
	}
	return b.String()
}
