package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ParseSpec parses a chaos specification string into the rate fields of
// a Schedule; the topology fields (Ticks, Servers, PMUs, Racks) are the
// caller's to fill (see cluster.ChaosTopology).
//
// A spec is a comma-separated list that may open with up to two
// presets — one machine-fault preset, "light", "medium" or "heavy",
// and one sensor-fault preset, "sensor-light", "sensor-medium" or
// "sensor-heavy" — followed by key=value overrides:
//
//	light
//	medium,pmu-mtbf=400
//	server-mtbf=250,server-mttr=20,loss-every=500,report-loss=0.3
//	medium,sensor-medium
//	sensor-light,sensor-dropout=1
//	heavy,sensor-mtbf=150,sensor-bias=6
//
// Keys (all means in ticks): server-mtbf, server-mttr, pmu-mtbf,
// pmu-mttr, burst-every, burst-mttr, loss-every, loss-ticks,
// report-loss, budget-loss, sensor-mtbf, sensor-mttr, sensor-noise,
// sensor-bias, sensor-drift, sensor-stuck, sensor-dropout. Values must
// be non-negative and finite.
func ParseSpec(spec string) (Schedule, error) {
	var s Schedule
	presetOf := map[bool]string{} // by kind: is it a sensor-* preset
	overridden := false
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		key, val, isKV := strings.Cut(f, "=")
		if !isKV {
			preset, ok := presets[f]
			if !ok {
				return s, fmt.Errorf("chaos: unknown preset %q (valid presets: %s)", f, strings.Join(Names(), ", "))
			}
			if overridden {
				return s, fmt.Errorf("chaos: preset %q must come before the overrides in spec %q", f, spec)
			}
			kind := strings.HasPrefix(f, "sensor-")
			if presetOf[kind] != "" {
				return s, fmt.Errorf("chaos: presets %q and %q are of one kind in spec %q", presetOf[kind], f, spec)
			}
			presetOf[kind] = f
			// The two kinds set disjoint fields, so both compose.
			for _, field := range specKeys {
				if v := *field(&preset); v != 0 {
					*field(&s) = v
				}
			}
			continue
		}
		key = strings.TrimSpace(key)
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return s, fmt.Errorf("chaos: bad value in %q: %v", f, err)
		}
		if !nonNegativeFinite(v) {
			return s, fmt.Errorf("chaos: value in %q must be non-negative and finite", f)
		}
		field, ok := specKeys[key]
		if !ok {
			return s, fmt.Errorf("chaos: unknown key %q in spec %q", key, spec)
		}
		*field(&s) = v
		overridden = true
	}
	return s, nil
}

// presets are the named fault-intensity levels, calibrated for runs of
// a few hundred to a few thousand ticks over tens of servers.
var presets = map[string]Schedule{
	"light": {
		ServerMTBF: 600, ServerMTTR: 40,
		PMUMTBF: 2000, PMUMTTR: 60,
	},
	"medium": {
		ServerMTBF: 300, ServerMTTR: 30,
		PMUMTBF: 900, PMUMTTR: 50,
		BurstEvery: 1500, BurstMTTR: 40,
		LossEvery: 800, LossTicks: 60,
		ReportLoss: 0.2, BudgetLoss: 0.2,
	},
	"heavy": {
		ServerMTBF: 150, ServerMTTR: 25,
		PMUMTBF: 400, PMUMTTR: 40,
		BurstEvery: 600, BurstMTTR: 40,
		LossEvery: 400, LossTicks: 80,
		ReportLoss: 0.35, BudgetLoss: 0.35,
	},
	// The sensor-* presets corrupt only telemetry: hardware and control
	// links stay up, instruments lie. Each composes with one machine
	// preset, e.g. "medium,sensor-medium".
	"sensor-light": {
		SensorMTBF: 400, SensorMTTR: 50,
		SensorNoise: 1.5, SensorBias: 4,
	},
	"sensor-medium": {
		SensorMTBF: 220, SensorMTTR: 80,
		SensorNoise: 2, SensorBias: 5, SensorDrift: 0.3,
		SensorStuck: 1,
	},
	"sensor-heavy": {
		SensorMTBF: 120, SensorMTTR: 120,
		SensorNoise: 2.5, SensorBias: 8, SensorDrift: 0.5,
		SensorStuck: 1, SensorDropout: 1,
	},
}

// Names returns the valid preset names, sorted — the list surfaced by
// unknown-preset errors and the CLIs' usage text.
func Names() []string { return sortedNames(presets) }

// sortedNames returns m's keys in ascending order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// specKeys maps spec keys to their Schedule fields.
var specKeys = map[string]func(*Schedule) *float64{
	"server-mtbf": func(s *Schedule) *float64 { return &s.ServerMTBF },
	"server-mttr": func(s *Schedule) *float64 { return &s.ServerMTTR },
	"pmu-mtbf":    func(s *Schedule) *float64 { return &s.PMUMTBF },
	"pmu-mttr":    func(s *Schedule) *float64 { return &s.PMUMTTR },
	"burst-every": func(s *Schedule) *float64 { return &s.BurstEvery },
	"burst-mttr":  func(s *Schedule) *float64 { return &s.BurstMTTR },
	"loss-every":  func(s *Schedule) *float64 { return &s.LossEvery },
	"loss-ticks":  func(s *Schedule) *float64 { return &s.LossTicks },
	"report-loss": func(s *Schedule) *float64 { return &s.ReportLoss },
	"budget-loss": func(s *Schedule) *float64 { return &s.BudgetLoss },

	"sensor-mtbf":    func(s *Schedule) *float64 { return &s.SensorMTBF },
	"sensor-mttr":    func(s *Schedule) *float64 { return &s.SensorMTTR },
	"sensor-noise":   func(s *Schedule) *float64 { return &s.SensorNoise },
	"sensor-bias":    func(s *Schedule) *float64 { return &s.SensorBias },
	"sensor-drift":   func(s *Schedule) *float64 { return &s.SensorDrift },
	"sensor-stuck":   func(s *Schedule) *float64 { return &s.SensorStuck },
	"sensor-dropout": func(s *Schedule) *float64 { return &s.SensorDropout },
}
