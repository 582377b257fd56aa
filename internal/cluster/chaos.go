package cluster

// Chaos integration: expand a seeded chaos.Schedule against a run's
// topology and fold the resulting fault plan into its Config.

import (
	"willow/internal/chaos"
	"willow/internal/core"
	"willow/internal/topo"
)

// ChaosTopology derives the fault-injection surface of a fan-out: the
// server count, the crash-eligible PMU node IDs (every internal node
// except the root — killing the root leaves nothing to measure against)
// and the racks (the server spans of the level-1 PMUs) for correlated
// bursts.
func ChaosTopology(fanout []int) (servers int, pmus []int, racks [][]int, err error) {
	tree, err := topo.Build(fanout)
	if err != nil {
		return 0, nil, nil, err
	}
	for _, n := range tree.Nodes {
		if n.IsLeaf() || n == tree.Root {
			continue
		}
		pmus = append(pmus, n.ID)
	}
	for _, n := range tree.LevelNodes(1) {
		rack := make([]int, 0, len(n.Children))
		for _, ch := range n.Children {
			rack = append(rack, ch.ServerIndex)
		}
		racks = append(racks, rack)
	}
	return tree.NumServers(), pmus, racks, nil
}

// ApplyPlan folds an expanded chaos plan into the run configuration,
// appending to any fault events already present, and arms the robust
// estimator (ArmSensing) when the plan injects sensor faults, unless
// cfg asks for the naive baseline: a sensor chaos run with a blindly
// trusting controller is never what a chaos experiment means to measure
// unless it says so.
func ApplyPlan(cfg *Config, plan chaos.Plan) {
	f := &cfg.Faults
	f.ServerFailures = append(f.ServerFailures, plan.ServerFailures...)
	f.PMUFailures = append(f.PMUFailures, plan.PMUFailures...)
	f.LossWindows = append(f.LossWindows, plan.LossWindows...)
	f.SensorFaults = append(f.SensorFaults, plan.SensorFaults...)
	if len(plan.SensorFaults) > 0 && !cfg.NaiveSensing {
		ArmSensing(&cfg.Core)
	}
}

// ArmSensing turns on the Core robust temperature estimator at its
// default knobs — window 5, gate 3 °C, 3 trips, guard 2 °C — unless c
// already configures it.
func ArmSensing(c *core.Config) {
	if c.SensorWindow > 0 || c.SensorGate > 0 || c.SensorTrips > 0 || c.SensorGuard > 0 {
		return
	}
	c.SensorWindow, c.SensorGate, c.SensorTrips, c.SensorGuard = 5, 3, 3, 2
}

// ExpandChaos is the one spec → plan path: it parses spec
// (chaos.ParseSpec) and expands it deterministically for seed over
// ticks ticks of fanout's topology. ApplyChaos folds its plan into a
// Config; the daemon injects it live over the remaining horizon.
func ExpandChaos(spec string, fanout []int, ticks int, seed uint64) (chaos.Plan, error) {
	sched, err := chaos.ParseSpec(spec)
	if err != nil {
		return chaos.Plan{}, err
	}
	sched.Ticks = ticks
	if sched.Servers, sched.PMUs, sched.Racks, err = ChaosTopology(fanout); err != nil {
		return chaos.Plan{}, err
	}
	return sched.Expand(seed)
}

// ApplyChaos parses a chaos spec (see chaos.ParseSpec), expands it
// deterministically for the given seed against cfg's topology and
// horizon, and folds the plan into cfg (ApplyPlan). When the plan
// crashes servers or PMUs or drops control messages, it also arms
// budget leases of 2·η1 ticks if the Core config has none: a chaos run
// without leases would ride stale budgets forever, which is never what
// a chaos experiment means to measure. A plan of sensor faults alone
// leaves leases as they are. It returns the expanded plan for
// reporting.
func ApplyChaos(cfg *Config, spec string, seed uint64) (chaos.Plan, error) {
	plan, err := ExpandChaos(spec, cfg.Fanout, cfg.Ticks, seed)
	if err != nil {
		return chaos.Plan{}, err
	}
	machine := len(plan.ServerFailures) > 0 || len(plan.PMUFailures) > 0 || len(plan.LossWindows) > 0
	if machine && cfg.Core.BudgetLeaseTicks == 0 {
		eta1 := cfg.Core.Eta1
		if eta1 == 0 {
			eta1 = core.Defaults().Eta1
		}
		cfg.Core.BudgetLeaseTicks = 2 * eta1
	}
	ApplyPlan(cfg, plan)
	return plan, nil
}
