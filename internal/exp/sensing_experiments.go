package exp

import (
	"fmt"

	"willow/internal/cluster"
	"willow/internal/metrics"
)

func init() {
	register("sensing", "Sensor-fault tolerance — corrupted telemetry vs robust estimation", runSensing)
}

// runSensing measures what the robust temperature estimator buys when
// instruments lie. Each fault intensity runs twice against an identical
// seeded sensor-fault plan (cluster.ApplyChaos): once naive —
// the controller trusts every reading, so a sensor stuck cold while the
// server heats walks the Eq. 3 cap up and the *physical* temperature
// through the limit — and once with the estimator armed, whose
// safe-side anchor (core/sensing.go) keeps the observed temperature at
// or above truth, so the true-temperature cap holds with zero
// violations at the price of guard-band conservatism. A clean run
// anchors both against the fault-free baseline.
//
// With Options.ChaosSpec set the intensity ladder is replaced by that
// one spec (still naive vs robust).
func runSensing(opts Options) (*Result, error) {
	type variant struct {
		name  string
		spec  string
		naive bool
	}
	variants := []variant{
		{"clean", "", false},
		{"light/naive", "sensor-light", true},
		{"light/robust", "sensor-light", false},
		{"heavy/naive", "sensor-heavy", true},
		{"heavy/robust", "sensor-heavy", false},
	}
	if opts.Quick {
		variants = []variant{
			{"clean", "", false},
			{"heavy/naive", "sensor-heavy", true},
			{"heavy/robust", "sensor-heavy", false},
		}
	}
	if opts.ChaosSpec != "" {
		variants = []variant{
			{"clean", "", false},
			{"custom/naive", opts.ChaosSpec, true},
			{"custom/robust", opts.ChaosSpec, false},
		}
	}
	chaosSeed := opts.ChaosSeed
	if chaosSeed == 0 {
		chaosSeed = defaultChaosSeed
	}

	tb := metrics.NewTable(
		"Thermal safety under corrupted telemetry (U=70%, identical fault plans)",
		"scenario", "faults", "rejected", "guard ticks",
		"limit violations (true)", "max true temp (°C)", "max obs temp (°C)",
		"dropped (watt-ticks)",
	)
	var clean, naive, robust *cluster.Result
	for _, v := range variants {
		cfg := cluster.PaperConfig(0.7)
		shortenFor(opts)(&cfg)
		cfg.NaiveSensing = v.naive
		if v.spec != "" {
			if _, err := cluster.ApplyChaos(&cfg, v.spec, chaosSeed); err != nil {
				return nil, err
			}
		}
		r, err := cluster.Run(cfg)
		if err != nil {
			return nil, err
		}
		tb.AddRow(v.name,
			fmt.Sprintf("%d", r.Stats.SensorFaults),
			fmt.Sprintf("%d", r.Stats.SensorRejected),
			fmt.Sprintf("%d", r.Stats.SensorGuardTicks),
			fmt.Sprintf("%d", r.LimitViolationTicks),
			fmt.Sprintf("%.1f", r.MaxTemp),
			fmt.Sprintf("%.1f", r.MaxObsTemp),
			fmt.Sprintf("%.0f", r.DroppedWattTicks))
		switch {
		case v.spec == "":
			clean = r
		case v.naive:
			naive = r
		default:
			robust = r
		}
	}
	notes := []string{
		"identical sensor-fault plans per intensity: the naive and robust rows see the same corrupted readings, only the estimator differs",
		"robust estimation: median-of-window + residual gate against the RC-model one-step prediction; unhealthy sensors fall back to model prediction + guard band",
	}
	if clean != nil && naive != nil && robust != nil {
		notes = append(notes,
			fmt.Sprintf("safety headline: naive control violates the true 70 °C limit for %d server-ticks (max %.1f °C); the robust estimator holds it to %d violations (max %.1f °C, clean baseline %.1f °C)",
				naive.LimitViolationTicks, naive.MaxTemp,
				robust.LimitViolationTicks, robust.MaxTemp, clean.MaxTemp))
	}
	return &Result{Table: tb, Notes: notes}, nil
}
