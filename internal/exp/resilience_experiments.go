package exp

import (
	"fmt"

	"willow/internal/cluster"
	"willow/internal/metrics"
)

func init() {
	register("resilience", "Control-plane failure tolerance — chaos schedules vs degraded-mode outcomes", runResilience)
}

// defaultChaosSeed seeds chaos-schedule expansion when the caller does
// not choose one ("chaos" in ASCII).
const defaultChaosSeed = 0x6368616f73

// runResilience sweeps fault intensity against control quality: seeded
// chaos schedules (server and PMU crashes, rack bursts, link-loss
// windows) run against the paper configuration with budget leases
// armed, measuring what resilience costs — dropped and stranded demand,
// degraded server-ticks — and what it buys: the thermal and circuit
// hard constraints hold no matter how much of the control plane is
// down, because degraded nodes decay held budgets toward autonomous
// safe floors instead of riding stale grants (degraded.go).
//
// With Options.ChaosSpec set the intensity sweep is replaced by that
// one schedule against the fail-free baseline.
func runResilience(opts Options) (*Result, error) {
	type variant struct {
		name string
		spec string
	}
	variants := []variant{
		{"fail-free", ""},
		{"light", "light"},
		{"medium", "medium"},
		{"heavy", "heavy"},
	}
	if opts.Quick {
		variants = []variant{{"fail-free", ""}, {"medium", "medium"}}
	}
	if opts.ChaosSpec != "" {
		variants = []variant{{"fail-free", ""}, {"custom", opts.ChaosSpec}}
	}
	chaosSeed := opts.ChaosSeed
	if chaosSeed == 0 {
		chaosSeed = defaultChaosSeed
	}

	tb := metrics.NewTable(
		"Degraded-mode outcomes under seeded chaos (U=60%, budget leases armed)",
		"schedule", "srv fails", "pmu fails", "lease expiries", "degraded ticks",
		"restarts", "dropped (watt-ticks)", "orphaned (watt-ticks)", "max temp (°C)",
	)
	var base, worst *cluster.Result
	for _, v := range variants {
		cfg := cluster.PaperConfig(0.6)
		shortenFor(opts)(&cfg)
		// Arm leases for every variant — including fail-free — so the
		// comparison isolates the faults, not the lease machinery.
		cfg.Core.BudgetLeaseTicks = 2 * cfg.Core.Eta1
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
			fmt.Sprintf("%d", r.Stats.Failures),
			fmt.Sprintf("%d", r.Stats.PMUFailures),
			fmt.Sprintf("%d", r.Stats.LeaseExpiries),
			fmt.Sprintf("%d", r.Stats.DegradedTicks),
			fmt.Sprintf("%d", r.Stats.Restarts),
			fmt.Sprintf("%.0f", r.DroppedWattTicks),
			fmt.Sprintf("%.0f", r.Stats.OrphanWattTicks),
			fmt.Sprintf("%.1f", r.MaxTemp))
		if v.spec == "" {
			base = r
		} else {
			worst = r
		}
	}
	notes := []string{
		"budget leases of 2·η1 ticks: a node silent for two supply windows degrades and decays its held budget toward min(thermal limit, circuit limit, static + fair share)",
	}
	if base != nil && worst != nil {
		notes = append(notes,
			fmt.Sprintf("hard constraints hold under chaos: max temperature %.1f °C vs %.1f °C fail-free (limit 70 °C) — degradation sheds demand (%.0f vs %.0f watt-ticks dropped) instead of overheating",
				worst.MaxTemp, base.MaxTemp,
				worst.DroppedWattTicks, base.DroppedWattTicks))
	}
	return &Result{Table: tb, Notes: notes}, nil
}
