package cluster

// Chaos integration: expand a seeded chaos.Schedule against a run's
// topology and fold the resulting fault plan into its Config.

import (
	"willow/internal/chaos"
	"willow/internal/sensor"
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
// appending to any fault events already present.
func ApplyPlan(cfg *Config, plan chaos.Plan) {
	f := &cfg.Faults
	f.ServerFailures = append(f.ServerFailures, plan.ServerFailures...)
	f.PMUFailures = append(f.PMUFailures, plan.PMUFailures...)
	f.LossWindows = append(f.LossWindows, plan.LossWindows...)
	f.SensorFaults = append(f.SensorFaults, plan.SensorFaults...)
	armSensing(cfg, plan)
}

// armSensing turns on the Core robust-estimation knobs when a plan
// injects sensor faults and the caller has neither configured the
// estimator nor asked for the naive (estimator-off) baseline. A sensor
// chaos run with a blindly trusting controller is never what a chaos
// experiment means to measure unless it says so.
func armSensing(cfg *Config, plan chaos.Plan) {
	if len(plan.SensorFaults) == 0 || cfg.NaiveSensing {
		return
	}
	c := &cfg.Core
	if c.SensorWindow > 0 || c.SensorGate > 0 || c.SensorTrips > 0 || c.SensorGuard > 0 {
		return
	}
	c.SensorWindow = 5
	c.SensorGate = 3
	c.SensorTrips = 3
	c.SensorGuard = 2
}

// ExpandChaos is the one spec → plan path. It parses spec, a chaos
// spec (chaos.ParseSpec) or, with sensorOnly, a sensor-fault spec
// (sensor.ParseSpec) that corrupts telemetry only, and expands it
// deterministically for seed over ticks ticks of fanout's topology.
// ApplyChaos and ApplySensorChaos fold its plan into a Config; the
// daemon injects it live over the remaining horizon.
func ExpandChaos(spec string, sensorOnly bool, fanout []int, ticks int, seed uint64) (chaos.Plan, error) {
	var sched chaos.Schedule
	var err error
	if sensorOnly {
		var sp sensor.Spec
		if sp, err = sensor.ParseSpec(spec); err != nil {
			return chaos.Plan{}, err
		}
		sched = chaos.Schedule{
			SensorMTBF: sp.MTBF, SensorMTTR: sp.MTTR,
			SensorNoise: sp.Noise, SensorBias: sp.Bias, SensorDrift: sp.Drift,
			SensorStuck: sp.Stuck, SensorDropout: sp.Dropout,
		}
	} else if sched, err = chaos.ParseSpec(spec); err != nil {
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
// horizon, and folds the plan into cfg. It also arms budget leases
// when the Core config has none: a chaos run without leases would ride
// stale budgets forever, which is never what a chaos experiment means
// to measure. It returns the expanded plan for reporting.
func ApplyChaos(cfg *Config, spec string, seed uint64) (chaos.Plan, error) {
	plan, err := ExpandChaos(spec, false, cfg.Fanout, cfg.Ticks, seed)
	if err != nil {
		return chaos.Plan{}, err
	}
	if cfg.Core.BudgetLeaseTicks == 0 {
		eta1 := cfg.Core.Eta1
		if eta1 == 0 {
			eta1 = 4 // core.Defaults
		}
		cfg.Core.BudgetLeaseTicks = 2 * eta1
	}
	ApplyPlan(cfg, plan)
	return plan, nil
}

// ApplySensorChaos parses a sensor-fault spec (see sensor.ParseSpec),
// expands it deterministically for the given seed against cfg's topology
// and horizon, and folds the resulting sensor-fault windows into cfg.
// Unlike ApplyChaos it injects no server/PMU/network faults: the spec
// corrupts only telemetry, which is exactly what a sensing-robustness
// experiment wants to isolate. It returns the expanded plan for
// reporting.
func ApplySensorChaos(cfg *Config, spec string, seed uint64) (chaos.Plan, error) {
	plan, err := ExpandChaos(spec, true, cfg.Fanout, cfg.Ticks, seed)
	if err != nil {
		return chaos.Plan{}, err
	}
	ApplyPlan(cfg, plan)
	return plan, nil
}
