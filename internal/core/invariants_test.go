package core

import (
	"math"
	"testing"
	"testing/quick"

	"willow/internal/chaos"
	"willow/internal/dist"
	"willow/internal/power"
	"willow/internal/sensor"
	"willow/internal/thermal"
	"willow/internal/topo"
	"willow/internal/workload"
)

// TestRandomScenarioInvariants is the whole-system property harness: it
// generates random fleets, workloads, supplies and controller knobs —
// including the asynchronous control plane, slow transfers and QoS
// classes — runs each scenario, and asserts the invariants that must
// hold in every reachable state:
//
//   - applications are conserved (never lost, duplicated, or parked on a
//     sleeping server),
//   - consumption never exceeds the granted budget or the raw demand,
//   - no temperature crosses its limit,
//   - no ping-pong migrations within Δf,
//   - Property 3's two-messages-per-link bound,
//   - reservations and budgets are non-negative.
func TestRandomScenarioInvariants(t *testing.T) {
	scenario := func(seed uint64) bool {
		src := dist.NewSource(seed)

		fanouts := [][]int{{4}, {2, 3}, {2, 2, 2}, {3, 3}, {2, 3, 3}}
		fanout := fanouts[src.Intn(len(fanouts))]
		tree, err := topo.Build(fanout)
		if err != nil {
			t.Fatal(err)
		}
		n := tree.NumServers()

		cfg := Defaults()
		cfg.Alpha = src.Uniform(0.1, 1)
		cfg.Eta1 = 1 + src.Intn(6)
		cfg.Eta2 = cfg.Eta1 + 1 + src.Intn(8)
		cfg.PMin = src.Uniform(1, 20)
		cfg.MigCostWatts = src.Uniform(0.5, 10)
		cfg.ConsolidateBelow = src.Uniform(0.05, 0.4)
		if src.Float64() < 0.4 {
			cfg.ReportLatency = 1 + src.Intn(4)
		}
		if src.Float64() < 0.3 {
			cfg.ReportLoss = src.Uniform(0, 0.5)
		}
		if src.Float64() < 0.4 {
			cfg.MigrationLatency = 1 + src.Intn(5)
		}
		if src.Float64() < 0.3 {
			cfg.LocalOnly = true
		}

		appCount := 0
		specs := make([]ServerSpec, n)
		for i := range specs {
			static := src.Uniform(20, 150)
			peak := static + src.Uniform(50, 350)
			amb := src.Uniform(20, 45)
			specs[i] = ServerSpec{
				Power: power.ServerModel{Static: static, Peak: peak},
				Thermal: thermal.Model{
					C1:      src.Uniform(0.002, 0.02),
					C2:      src.Uniform(0.02, 0.1),
					Ambient: amb,
					Limit:   amb + src.Uniform(20, 50),
				},
			}
			if src.Float64() < 0.3 {
				specs[i].CircuitLimit = src.Uniform(static+20, peak)
			}
			for a := 0; a < 1+src.Intn(5); a++ {
				specs[i].Apps = append(specs[i].Apps, &workload.App{
					ID:          appCount,
					Class:       workload.Class{Weight: src.Uniform(1, 9)},
					Mean:        src.Uniform(5, (peak-static)/2),
					NoiseLambda: src.Uniform(5, 50),
					Priority:    src.Intn(3),
				})
				appCount++
			}
		}

		var rated float64
		for _, sp := range specs {
			rated += sp.Power.Peak
		}
		var supply power.Supply
		switch src.Intn(3) {
		case 0:
			supply = power.Constant(rated * src.Uniform(0.4, 1.1))
		case 1:
			supply = power.Sine{
				Base:      rated * src.Uniform(0.5, 0.9),
				Amplitude: rated * src.Uniform(0.1, 0.4),
				Period:    3 + src.Intn(20),
			}
		default:
			tr := make(power.Trace, 4+src.Intn(12))
			for i := range tr {
				tr[i] = rated * src.Uniform(0.3, 1.1)
			}
			supply = tr
		}

		c, err := New(tree, specs, supply, cfg, src.Fork())
		if err != nil {
			t.Fatal(err)
		}

		for tick := 0; tick < 120; tick++ {
			c.Step()
			apps := 0
			for si, s := range c.Servers {
				apps += s.Apps.Len()
				if s.TP() < -tolerance {
					t.Fatalf("seed %d tick %d: server %d negative budget %v", seed, tick, si, s.TP())
				}
				if s.Consumed() < 0 || s.Consumed() > s.TP()+1e-6 || s.Consumed() > s.RawDemand()+1e-6 {
					t.Fatalf("seed %d tick %d: server %d consumption %v out of bounds (TP %v, raw %v)",
						seed, tick, si, s.Consumed(), s.TP(), s.RawDemand())
				}
				if s.Thermal.T > s.Thermal.Model.Limit+1e-6 {
					t.Fatalf("seed %d tick %d: server %d at %v °C over limit %v",
						seed, tick, si, s.Thermal.T, s.Thermal.Model.Limit)
				}
				if s.Asleep() && s.Apps.Len() > 0 {
					t.Fatalf("seed %d tick %d: sleeping server %d hosts %d apps", seed, tick, si, s.Apps.Len())
				}
			}
			if apps != appCount {
				t.Fatalf("seed %d tick %d: %d apps, want %d", seed, tick, apps, appCount)
			}
			// Budget conservation at every internal node: children never
			// receive more than the parent was granted.
			for _, n := range c.Tree.Nodes {
				if n.IsLeaf() {
					continue
				}
				var childSum float64
				for _, ch := range n.Children {
					if ch.IsLeaf() {
						childSum += c.Servers[ch.ServerIndex].TP()
					} else {
						childSum += c.pmuTP[ch.ID]
					}
				}
				if childSum > c.pmuTP[n.ID]+1e-3 {
					t.Fatalf("seed %d tick %d: node %s granted %v to children with budget %v",
						seed, tick, n.Name(), childSum, c.pmuTP[n.ID])
				}
			}
			for idx, r := range c.reserved {
				if r < -tolerance {
					t.Fatalf("seed %d tick %d: negative reservation %v on server %d", seed, tick, r, idx)
				}
			}
		}
		if c.Stats.PingPongs != 0 {
			t.Fatalf("seed %d: %d ping-pongs", seed, c.Stats.PingPongs)
		}
		if c.Stats.MaxLinkMessagesPerTick > 2 {
			t.Fatalf("seed %d: %d messages on one link in one tick", seed, c.Stats.MaxLinkMessagesPerTick)
		}
		// Per-priority accounting must balance: served <= demand.
		for p, demand := range c.Stats.DemandByPriority {
			if c.Stats.ServedByPriority[p] > demand+1e-6 {
				t.Fatalf("seed %d: priority %d served more than demanded", seed, p)
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(scenario, cfg); err != nil {
		t.Error(err)
	}
}

// TestFaultScheduleInvariants is the property harness for the failure
// machinery: random fleets run under random seeded chaos schedules —
// server crashes, PMU crashes, repairs — with leases, budget latency and
// loss in play, and every reachable state must satisfy:
//
//   - no migration or orphan restart ever targets a failed server, a
//     sleeping server, or a server stranded under a dead PMU,
//   - applications are conserved: hosted + orphaned == created,
//   - consumption respects the hard caps (thermal Eq. 3, circuit, peak)
//     even while spans ride decayed lease budgets,
//   - failure/repair accounting matches the schedule,
//   - under combined PMU *and* sensor chaos — instruments lying while
//     the control plane crashes — the observed temperature stays finite
//     (no NaN ever reaches the control path) and no server's *true*
//     temperature crosses its limit.
func TestFaultScheduleInvariants(t *testing.T) {
	scenario := func(seed uint64) bool {
		src := dist.NewSource(seed)

		fanouts := [][]int{{4}, {2, 3}, {2, 2, 2}, {3, 3}, {2, 3, 3}}
		fanout := fanouts[src.Intn(len(fanouts))]
		tree, err := topo.Build(fanout)
		if err != nil {
			t.Fatal(err)
		}
		n := tree.NumServers()

		cfg := Defaults()
		cfg.Eta1 = 1 + src.Intn(4)
		cfg.Eta2 = cfg.Eta1 + 1 + src.Intn(6)
		cfg.BudgetLeaseTicks = cfg.Eta1 * (1 + src.Intn(3))
		cfg.DegradedDecay = src.Uniform(0.2, 0.9)
		if src.Float64() < 0.4 {
			cfg.BudgetLatency = 1 + src.Intn(3)
		}
		if src.Float64() < 0.3 {
			cfg.BudgetLoss = src.Uniform(0, 0.4)
		}
		if src.Float64() < 0.3 {
			cfg.ReportLoss = src.Uniform(0, 0.4)
		}
		if src.Float64() < 0.3 {
			cfg.MigrationLatency = 1 + src.Intn(4)
		}
		// Most scenarios run the robust estimator against the lying
		// sensors; a minority stay naive, which must still never crash
		// or leak NaN (benign thermal keeps naive physically safe here —
		// the hot-model hazard is TestSensorChaosTrueTemperatureCap's).
		robustSensing := src.Float64() < 0.7
		if robustSensing {
			cfg.SensorWindow = 3 + src.Intn(5)
			cfg.SensorGate = src.Uniform(1, 5)
			cfg.SensorTrips = 1 + src.Intn(4)
			cfg.SensorGuard = src.Uniform(0, 4)
		}

		appCount := 0
		specs := make([]ServerSpec, n)
		for i := range specs {
			static := src.Uniform(20, 100)
			peak := static + src.Uniform(80, 300)
			specs[i] = ServerSpec{
				Power:   power.ServerModel{Static: static, Peak: peak},
				Thermal: benignThermal,
			}
			if src.Float64() < 0.3 {
				specs[i].CircuitLimit = src.Uniform(static+20, peak)
			}
			for a := 0; a < 1+src.Intn(3); a++ {
				specs[i].Apps = append(specs[i].Apps, &workload.App{
					ID:          appCount,
					Class:       workload.Class{Weight: src.Uniform(1, 9)},
					Mean:        src.Uniform(5, (peak-static)/2),
					NoiseLambda: src.Uniform(5, 50),
				})
				appCount++
			}
		}
		var rated float64
		for _, sp := range specs {
			rated += sp.Power.Peak
		}

		const ticks = 160
		sched := chaos.Schedule{
			Ticks:      ticks,
			Servers:    n,
			ServerMTBF: float64(20 + src.Intn(200)),
			ServerMTTR: float64(5 + src.Intn(30)),
			PMUMTBF:    float64(20 + src.Intn(200)),
			PMUMTTR:    float64(5 + src.Intn(40)),

			SensorMTBF:    float64(20 + src.Intn(150)),
			SensorMTTR:    float64(5 + src.Intn(40)),
			SensorNoise:   src.Uniform(0.5, 3),
			SensorBias:    src.Uniform(2, 10),
			SensorDrift:   src.Uniform(0.1, 0.5),
			SensorStuck:   1,
			SensorDropout: 1,
		}
		for _, node := range tree.Nodes {
			if !node.IsLeaf() && node != tree.Root {
				sched.PMUs = append(sched.PMUs, node.ID)
			}
		}
		if len(sched.PMUs) == 0 {
			sched.PMUMTBF = 0 // flat {4} tree: nothing but the root to kill
		}
		plan, err := sched.Expand(seed)
		if err != nil {
			t.Fatal(err)
		}
		// Index fail/repair actions by tick, applied before the step —
		// the same ordering cluster.Run uses.
		type action struct {
			server, node int
			repair       bool
		}
		byTick := map[int][]action{}
		for _, f := range plan.ServerFailures {
			byTick[f.Tick] = append(byTick[f.Tick], action{server: f.Server, node: -1})
			if f.RepairTick > 0 {
				byTick[f.RepairTick] = append(byTick[f.RepairTick], action{server: f.Server, node: -1, repair: true})
			}
		}
		for _, f := range plan.PMUFailures {
			byTick[f.Tick] = append(byTick[f.Tick], action{server: -1, node: f.Node})
			if f.RepairTick > 0 {
				byTick[f.RepairTick] = append(byTick[f.RepairTick], action{server: -1, node: f.Node, repair: true})
			}
		}
		sensorSet := map[int][]chaos.SensorFault{}
		sensorClear := map[int][]int{}
		for _, f := range plan.SensorFaults {
			sensorSet[f.Start] = append(sensorSet[f.Start], f)
			if f.End > f.Start {
				sensorClear[f.End] = append(sensorClear[f.End], f.Server)
			}
		}

		c, err := New(tree, specs, power.Constant(rated*src.Uniform(0.5, 1.0)), cfg, src.Fork())
		if err != nil {
			t.Fatal(err)
		}
		sensorSrc := src.Fork()
		for i := 0; i < n; i++ {
			c.AttachSensor(i, sensor.New(sensorSrc.Fork()))
		}

		downServers := map[int]bool{}
		migSeen := 0
		for tick := 0; tick < ticks; tick++ {
			for _, a := range byTick[tick] {
				switch {
				case a.server >= 0 && !a.repair:
					c.FailServer(a.server)
					downServers[a.server] = true
				case a.server >= 0:
					c.RepairServer(a.server)
					delete(downServers, a.server)
				case !a.repair:
					c.FailPMU(a.node)
				default:
					c.RepairPMU(a.node)
				}
			}
			for _, f := range sensorSet[tick] {
				c.SetSensorFault(f.Server, sensor.Fault{Mode: f.Mode, Magnitude: f.Magnitude})
			}
			for _, si := range sensorClear[tick] {
				c.ClearSensorFault(si)
			}
			c.Step()

			// Every migration recorded this tick lands on an alive,
			// reachable server. (Sleep state is checked separately below:
			// a target may legitimately drain to sleep later in the same
			// tick, but failure and dead-span status only change at tick
			// boundaries, above.)
			for _, m := range c.Stats.Migrations[migSeen:] {
				to := c.Servers[m.To]
				if downServers[m.To] {
					t.Fatalf("seed %d tick %d: migration (cause %v) targeted failed server %d",
						seed, tick, m.Cause, m.To)
				}
				if c.underDeadPMU(to.Node) {
					t.Fatalf("seed %d tick %d: migration (cause %v) crossed into the dead span at server %d",
						seed, tick, m.Cause, m.To)
				}
			}
			migSeen = len(c.Stats.Migrations)

			apps := 0
			for si, s := range c.Servers {
				apps += s.Apps.Len()
				if math.IsNaN(s.TObs()) || math.IsInf(s.TObs(), 0) {
					t.Fatalf("seed %d tick %d: server %d non-finite observed temperature %v",
						seed, tick, si, s.TObs())
				}
				if math.IsNaN(s.Thermal.T) || s.Thermal.T > s.Thermal.Model.Limit+1e-6 {
					t.Fatalf("seed %d tick %d: server %d true temperature %v vs limit %v under sensor chaos",
						seed, tick, si, s.Thermal.T, s.Thermal.Model.Limit)
				}
				if downServers[si] && s.Apps.Len() > 0 {
					t.Fatalf("seed %d tick %d: failed server %d hosts %d apps", seed, tick, si, s.Apps.Len())
				}
				if s.Asleep() {
					if s.Apps.Len() > 0 {
						t.Fatalf("seed %d tick %d: sleeping server %d hosts %d apps", seed, tick, si, s.Apps.Len())
					}
					continue
				}
				if cap := s.HardCap(); s.Consumed() > cap+1e-6 {
					t.Fatalf("seed %d tick %d: server %d consumed %v above hard cap %v",
						seed, tick, si, s.Consumed(), cap)
				}
				if s.TP() < -tolerance {
					t.Fatalf("seed %d tick %d: server %d negative budget %v", seed, tick, si, s.TP())
				}
			}
			if total := apps + c.Orphans(); total != appCount {
				t.Fatalf("seed %d tick %d: %d apps hosted + %d orphaned, want %d",
					seed, tick, apps, c.Orphans(), appCount)
			}
		}
		if c.Stats.Failures != len(plan.ServerFailures) {
			t.Fatalf("seed %d: %d server failures recorded, schedule had %d",
				seed, c.Stats.Failures, len(plan.ServerFailures))
		}
		if c.Stats.PMUFailures != len(plan.PMUFailures) {
			t.Fatalf("seed %d: %d PMU failures recorded, schedule had %d",
				seed, c.Stats.PMUFailures, len(plan.PMUFailures))
		}
		if c.Stats.PMURepairs > c.Stats.PMUFailures || c.Stats.Repairs > c.Stats.Failures {
			t.Fatalf("seed %d: more repairs than failures", seed)
		}
		if c.Stats.SensorFaults != len(plan.SensorFaults) {
			t.Fatalf("seed %d: %d sensor faults recorded, schedule had %d",
				seed, c.Stats.SensorFaults, len(plan.SensorFaults))
		}
		if robustSensing && len(plan.SensorFaults) > 0 && c.Stats.SensorRejected == 0 {
			// Not every schedule's faults are egregious enough to gate, but
			// the counter must at least be wired; tolerate zero only when
			// the plan was tiny.
			if len(plan.SensorFaults) > 5 {
				t.Logf("seed %d: %d sensor faults but none rejected (benign draw)", seed, len(plan.SensorFaults))
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(scenario, cfg); err != nil {
		t.Error(err)
	}
}
