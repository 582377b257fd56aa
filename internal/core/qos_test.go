package core

import (
	"math"
	"testing"

	"willow/internal/power"
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
