package experiments

import (
	"flag"
	"fmt"

	"cloudviews/internal/fault"
)

// Flags are the workload flags cvsim and cvdash share: -scale, -days,
// -seed, -faults and -faultseed.
type Flags struct {
	// Scale is the -scale factor; below 1.0 it shrinks the configuration.
	Scale     float64
	days      int
	seed      uint64
	faults    string
	faultSeed uint64
}

// RegisterFlags defines the shared workload flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Float64Var(&f.Scale, "scale", 0.25, "workload scale factor (1.0 = paper-sized deployment)")
	fs.IntVar(&f.days, "days", 0, "override window length in days (0 = scaled default)")
	fs.Uint64Var(&f.seed, "seed", 0, "override workload seed")
	fs.StringVar(&f.faults, "faults", "", `fault spec, e.g. "stage=0.05,read=0.02,seed=7" (empty = no injection)`)
	fs.Uint64Var(&f.faultSeed, "faultseed", 0, "override the fault-injection seed (0 = keep spec's seed)")
	return f
}

// Production is the production window the flags select.
func (f *Flags) Production() (ProductionConfig, error) {
	return f.apply(DefaultProduction(), 0)
}

// GuardStorm is the guard storm the flags select. A scaled window keeps at
// least guardMinDays days; -faultseed seeds the storm.
func (f *Flags) GuardStorm() (ProductionConfig, error) {
	return f.apply(DefaultGuardComparison(), guardMinDays)
}

// apply scales cfg (a scaled window keeps at least minDays days), then
// applies the overrides. -faults replaces cfg.Faults, seed included.
func (f *Flags) apply(cfg ProductionConfig, minDays int) (ProductionConfig, error) {
	if f.Scale < 1.0 {
		cfg = cfg.Scale(f.Scale)
		cfg.Days = max(minDays, cfg.Days)
	}
	if f.days > 0 {
		cfg.Days = f.days
	}
	if f.seed != 0 {
		cfg.Profile.Seed = f.seed
	}
	if f.faults != "" {
		parsed, err := fault.ParseSpec(f.faults)
		if err != nil {
			return cfg, fmt.Errorf("-faults: %v", err)
		}
		cfg.Faults = parsed
	}
	if f.faultSeed != 0 {
		cfg.Faults.Seed = f.faultSeed
	}
	return cfg, nil
}
