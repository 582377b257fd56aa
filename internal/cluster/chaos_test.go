package cluster

import (
	"testing"

	"willow/internal/chaos"
)

func TestChaosTopology(t *testing.T) {
	servers, pmus, racks, err := ChaosTopology([]int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if servers != 18 {
		t.Errorf("servers = %d, want 18", servers)
	}
	// Internal non-root nodes under {2,3,3}: two level-2 PMUs (IDs 1-2)
	// and six level-1 PMUs (IDs 3-8).
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; len(pmus) != len(want) {
		t.Fatalf("pmus = %v, want %v", pmus, want)
	} else {
		for i, id := range want {
			if pmus[i] != id {
				t.Fatalf("pmus = %v, want %v", pmus, want)
			}
		}
	}
	if len(racks) != 6 {
		t.Fatalf("racks = %v, want 6 racks", racks)
	}
	seen := map[int]bool{}
	for _, rack := range racks {
		if len(rack) != 3 {
			t.Errorf("rack %v has %d servers, want 3", rack, len(rack))
		}
		for _, s := range rack {
			if s < 0 || s >= servers || seen[s] {
				t.Errorf("rack server %d out of range or duplicated", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != servers {
		t.Errorf("racks cover %d servers, want %d", len(seen), servers)
	}

	if _, _, _, err := ChaosTopology([]int{0}); err == nil {
		t.Error("invalid fanout accepted")
	}
}

func TestApplyChaos(t *testing.T) {
	cfg := shortConfig(0.6)
	if cfg.Core.BudgetLeaseTicks != 0 {
		t.Fatalf("paper config already has leases: %d", cfg.Core.BudgetLeaseTicks)
	}
	plan, err := ApplyChaos(&cfg, "medium", 7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Core.BudgetLeaseTicks != 2*cfg.Core.Eta1 {
		t.Errorf("leases armed to %d, want %d", cfg.Core.BudgetLeaseTicks, 2*cfg.Core.Eta1)
	}
	total := len(plan.ServerFailures) + len(plan.PMUFailures) + len(plan.LossWindows)
	if total == 0 {
		t.Fatal("medium schedule over 220 ticks expanded to an empty plan")
	}
	if got := len(cfg.Failures) + len(cfg.PMUFailures) + len(cfg.LossWindows); got != total {
		t.Errorf("config holds %d fault events, plan has %d", got, total)
	}

	// An explicit lease setting survives.
	cfg2 := shortConfig(0.6)
	cfg2.Core.BudgetLeaseTicks = 12
	if _, err := ApplyChaos(&cfg2, "light", 7); err != nil {
		t.Fatal(err)
	}
	if cfg2.Core.BudgetLeaseTicks != 12 {
		t.Errorf("explicit lease overwritten to %d", cfg2.Core.BudgetLeaseTicks)
	}

	if _, err := ApplyChaos(&cfg, "no-such-preset", 7); err == nil {
		t.Error("bad spec accepted")
	}
}

// TestChaosSmoke is the end-to-end chaos gate (make chaos-smoke): a
// medium-intensity seeded schedule against the paper configuration must
// complete, stay within the thermal envelope, and actually exercise the
// failure paths it claims to.
func TestChaosSmoke(t *testing.T) {
	// medium preset, with PMU crashes made frequent enough that a
	// 220-tick horizon reliably sees several.
	const spec = "medium,pmu-mtbf=80,pmu-mttr=30"
	cfg := shortConfig(0.6)
	plan, err := ApplyChaos(&cfg, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PMUFailures) == 0 {
		t.Fatal("spec produced no PMU failures over this horizon")
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PMUFailures != len(plan.PMUFailures) {
		t.Errorf("controller saw %d PMU failures, plan had %d", r.Stats.PMUFailures, len(plan.PMUFailures))
	}
	if r.Stats.Failures != len(plan.ServerFailures) {
		t.Errorf("controller saw %d server failures, plan had %d", r.Stats.Failures, len(plan.ServerFailures))
	}
	if r.Stats.PMURepairs > r.Stats.PMUFailures {
		t.Errorf("repairs %d exceed failures %d", r.Stats.PMURepairs, r.Stats.PMUFailures)
	}
	if r.Stats.LeaseExpiries == 0 {
		t.Error("PMU crashes but no lease ever expired — degraded mode never engaged")
	}
	if r.Stats.DegradedTicks == 0 {
		t.Error("lease machinery armed but no server ticked degraded")
	}
	if r.MaxTemp > cfg.Thermal.Limit+0.5 {
		t.Errorf("max temp %.2f exceeds limit %.1f under chaos", r.MaxTemp, cfg.Thermal.Limit)
	}

	// Same seed, same config → identical outcome.
	cfg2 := shortConfig(0.6)
	if _, err := ApplyChaos(&cfg2, spec, 42); err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalEnergy != r.TotalEnergy || r2.MaxTemp != r.MaxTemp ||
		r2.Stats.LeaseExpiries != r.Stats.LeaseExpiries ||
		r2.Stats.DegradedTicks != r.Stats.DegradedTicks ||
		r2.Stats.Restarts != r.Stats.Restarts ||
		r2.Stats.DroppedWattTicks != r.Stats.DroppedWattTicks {
		t.Error("same chaos seed produced different runs")
	}
}

// TestRunRejectsBadFaultEvents covers the validation added with the
// chaos plan plumbing: PMU failure events must name a live internal
// node and loss windows must be well-formed.
func TestRunRejectsBadFaultEvents(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"pmu-leaf", func(c *Config) {
			c.PMUFailures = append(c.PMUFailures, PMUFailureEvent{Node: 9, Tick: 10})
		}},
		{"pmu-out-of-range", func(c *Config) {
			c.PMUFailures = append(c.PMUFailures, PMUFailureEvent{Node: 99, Tick: 10})
		}},
		{"loss-reversed", func(c *Config) {
			c.LossWindows = append(c.LossWindows, LossWindow{Start: 50, End: 40, ReportLoss: 0.1})
		}},
		{"loss-probability", func(c *Config) {
			c.LossWindows = append(c.LossWindows, LossWindow{Start: 10, End: 40, ReportLoss: 1.5})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shortConfig(0.6)
			tc.mut(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("bad fault event accepted")
			}
		})
	}
}

// TestChaosPlanConversion checks ApplyPlan appends rather than
// replaces, preserving hand-written fault events.
func TestChaosPlanConversion(t *testing.T) {
	cfg := shortConfig(0.6)
	cfg.Failures = []FailureEvent{{Server: 0, Tick: 5, RepairTick: 9}}
	ApplyPlan(&cfg, chaos.Plan{
		ServerFailures: []chaos.ServerFailure{{Server: 1, Tick: 20, RepairTick: 30}},
		PMUFailures:    []chaos.PMUFailure{{Node: 3, Tick: 40, RepairTick: 55}},
		LossWindows:    []chaos.LossWindow{{Start: 60, End: 80, ReportLoss: 0.2, BudgetLoss: 0.1}},
	})
	if len(cfg.Failures) != 2 || cfg.Failures[0].Server != 0 || cfg.Failures[1].Server != 1 {
		t.Errorf("failures = %+v", cfg.Failures)
	}
	if len(cfg.PMUFailures) != 1 || cfg.PMUFailures[0].Node != 3 {
		t.Errorf("pmu failures = %+v", cfg.PMUFailures)
	}
	if len(cfg.LossWindows) != 1 || cfg.LossWindows[0].BudgetLoss != 0.1 {
		t.Errorf("loss windows = %+v", cfg.LossWindows)
	}
}
