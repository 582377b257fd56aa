package core

import (
	"math"
	"testing"

	"willow/internal/power"
	"willow/internal/sensor"
	"willow/internal/telemetry"
	"willow/internal/topo"
	"willow/internal/workload"
)

// qosController builds a single-server controller whose budget is pinned
// by a circuit limit, hosting apps with the given (mean, priority) pairs.
func qosController(t *testing.T, circuit float64, apps ...[2]float64) *Controller {
	t.Helper()
	spec := ServerSpec{
		Power:        power.ServerModel{Static: 50, Peak: 500},
		Thermal:      benignThermal,
		CircuitLimit: circuit,
	}
	for i, ap := range apps {
		spec.Apps = append(spec.Apps, &workload.App{
			ID:          i,
			Class:       workload.Class{Name: "vm", Weight: ap[0]},
			Mean:        ap[0],
			NoiseLambda: -1,
			Priority:    int(ap[1]),
		})
	}
	cfg := quietCfg()
	cfg.PMin = 1e12 // no migrations: this is a shedding test
	return buildController(t, []int{1}, []ServerSpec{spec}, power.Constant(1000), cfg)
}

func TestQoSFullServiceWhenBudgetCovers(t *testing.T) {
	c := qosController(t, 0, [2]float64{60, 0}, [2]float64{40, 2})
	c.Step()
	if got := c.Servers[0].Consumed(); math.Abs(got-150) > 1e-9 {
		t.Fatalf("consumed %v, want full 150", got)
	}
	for _, p := range []int{0, 2} {
		if got := c.Stats.ServiceLevel(p); got != 1 {
			t.Errorf("priority %d service level %v, want 1", p, got)
		}
	}
	if c.Stats.DegradedAppTicks != 0 || c.Stats.ShutdownAppTicks != 0 {
		t.Error("degradation recorded despite full service")
	}
}

// TestQoSShedsLowPriorityFirst: with a 120 W budget against 150 W of
// demand, the priority-2 app absorbs the entire 30 W shortfall while the
// priority-0 app runs untouched.
func TestQoSShedsLowPriorityFirst(t *testing.T) {
	c := qosController(t, 120, [2]float64{60, 0}, [2]float64{40, 2})
	c.Step()
	if got := c.Stats.ServiceLevel(0); got != 1 {
		t.Errorf("critical class service level %v, want 1", got)
	}
	// Low priority: served 10 of 40.
	if got := c.Stats.ServiceLevel(2); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("low class service level %v, want 0.25", got)
	}
	if got := c.Servers[0].Consumed(); math.Abs(got-120) > 1e-9 {
		t.Errorf("consumed %v, want budget 120", got)
	}
	if c.Stats.DegradedAppTicks != 1 {
		t.Errorf("degraded app ticks = %d, want 1", c.Stats.DegradedAppTicks)
	}
}

// TestQoSShutsDownWhenNothingLeft: a budget below even the critical
// demand shuts lower classes down entirely.
func TestQoSShutsDownWhenNothingLeft(t *testing.T) {
	c := qosController(t, 100, [2]float64{60, 0}, [2]float64{40, 2})
	c.Step()
	// Budget 100: static 50, then priority 0 gets 50 of its 60,
	// priority 2 gets nothing.
	if got := c.Stats.ServiceLevel(2); got != 0 {
		t.Errorf("low class service level %v, want 0", got)
	}
	if got := c.Stats.ServiceLevel(0); math.Abs(got-50.0/60) > 1e-9 {
		t.Errorf("critical class service level %v, want %v", got, 50.0/60)
	}
	if c.Stats.ShutdownAppTicks != 1 {
		t.Errorf("shutdown app ticks = %d, want 1", c.Stats.ShutdownAppTicks)
	}
}

// TestQoSBudgetBelowStatic: when the budget cannot even cover the static
// draw, everything sheds and the server browns out to its budget.
func TestQoSBudgetBelowStatic(t *testing.T) {
	c := qosController(t, 30, [2]float64{60, 0})
	c.Step()
	if got := c.Servers[0].Consumed(); math.Abs(got-30) > 1e-9 {
		t.Errorf("consumed %v, want budget 30", got)
	}
	if got := c.Stats.ServiceLevel(0); got != 0 {
		t.Errorf("service level %v, want 0", got)
	}
}

// TestQoSSamePriorityLargestFirst: within a class, the larger demand is
// served first so fewer applications degrade.
func TestQoSSamePriorityLargestFirst(t *testing.T) {
	// Budget 120 = 50 static + 70 dynamic against apps of 60 and 40.
	c := qosController(t, 120, [2]float64{60, 1}, [2]float64{40, 1})
	c.Step()
	// 60 fully served, 40 gets the remaining 10.
	if got := c.Stats.ServiceLevel(1); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("class service level %v, want 0.7", got)
	}
	if c.Stats.DegradedAppTicks != 1 {
		t.Errorf("degraded = %d, want exactly 1 app degraded", c.Stats.DegradedAppTicks)
	}
}

func TestServiceLevelUnknownClass(t *testing.T) {
	var st Stats
	if got := st.ServiceLevel(7); got != 1 {
		t.Errorf("unknown class service level %v, want 1", got)
	}
}

// TestNewRejectsNegativePriority: priorities index the per-priority QoS
// accumulators and 0 is documented as the most critical, so a negative
// priority is a construction error, not a silent extra class.
func TestNewRejectsNegativePriority(t *testing.T) {
	tree, err := topo.Build([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	specs := uniqueIDs([]ServerSpec{serverSpec(50, 250, 0, 10), serverSpec(50, 250, 0, 10, 20)})
	specs[1].Apps[1].Priority = -1
	if _, err := New(tree, specs, power.Constant(500), quietCfg(), nil); err == nil {
		t.Fatal("negative priority accepted")
	}
	specs[1].Apps[1].Priority = 2
	c, err := New(tree, specs, power.Constant(500), quietCfg(), nil)
	if err != nil {
		t.Fatalf("priority 2 rejected: %v", err)
	}
	c.Step()
	if _, ok := c.Stats.DemandByPriority[1]; ok {
		t.Error("priority 1 recorded with no priority-1 application")
	}
	if got := c.Stats.DemandByPriority[2]; got != 20 {
		t.Errorf("priority 2 demand = %v, want 20", got)
	}
}

// TestConsumeAllocFree holds the consume phase to zero allocations once
// its per-shard buffers are warm: every server sheds, the estimator is
// armed with noisy sensors on two servers, a sink listens, and two
// shards settle in parallel. Then a settle observer listens too: its
// fold starts on a goroutine of its own in the consume phase and joins
// at the end of Step, so whole Steps are measured.
func TestConsumeAllocFree(t *testing.T) {
	specs := make([]ServerSpec, 16)
	for i := range specs {
		specs[i] = serverSpec(100, 400, 0, 60, 50, 40, 30)
		for j, a := range specs[i].Apps {
			a.Priority = j % 3
		}
	}
	cfg := quietCfg()
	cfg.PMin = 1e6 // no migration can keep this margin, so every server keeps its apps
	cfg.Shards = 2
	cfg.SensorWindow, cfg.SensorGate, cfg.SensorTrips, cfg.SensorGuard = 5, 3, 3, 2
	c := buildController(t, []int{2, 8}, uniqueIDs(specs), power.Constant(16*200), cfg)
	if c.Shards() != 2 {
		t.Fatalf("planned %d shards, want 2", c.Shards())
	}
	events := 0
	c.Sink = telemetry.SinkFunc(func(telemetry.Event) { events++ })
	for _, i := range []int{0, 9} {
		c.SetSensorFault(i, sensor.Fault{Mode: sensor.ModeNoise, Magnitude: 10})
	}
	c.Run(8)
	for range 8 {
		c.consumeAndHeat()
	}
	for _, s := range c.Servers {
		if s.Dropped() <= 0 {
			t.Fatalf("server %d did not shed", s.Index())
		}
	}
	before := events
	if allocs := testing.AllocsPerRun(50, c.consumeAndHeat); allocs != 0 {
		t.Errorf("consumeAndHeat allocated %v times per call, want 0", allocs)
	}
	if events == before {
		t.Error("the measured calls published no event")
	}

	obs := &countingObserver{}
	c.Settle = obs
	c.Run(8)
	if allocs := testing.AllocsPerRun(50, c.Step); allocs != 0 {
		t.Errorf("Step with a settle observer allocated %v times per call, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the 50 it measures.
	if want := 8 + 51; obs.folds != want || obs.settled[0]+obs.settled[1] != want*len(c.Servers) {
		t.Errorf("observer heard %d folds and %v settles, want %d and %d", obs.folds, obs.settled, want, want*len(c.Servers))
	}
}

// countingObserver is a settle observer that only counts its calls,
// per shard so the settling goroutines write apart.
type countingObserver struct {
	settled [2]int
	folds   int
}

func (o *countingObserver) Settled(shard int, _ *Server) { o.settled[shard]++ }
func (o *countingObserver) Fold()                        { o.folds++ }
