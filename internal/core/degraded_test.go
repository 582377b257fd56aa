package core

import (
	"math"
	"reflect"
	"testing"

	"willow/internal/power"
	"willow/internal/telemetry"
)

// leaseScenario: two servers under a single root PMU, leases armed. The
// demand is deliberately lopsided so the loaded server's allocation sits
// above its autonomous floor (static + half the supply) — degradation
// then has something to decay.
func leaseScenario(t *testing.T, cfg Config) *Controller {
	t.Helper()
	specs := uniqueIDs([]ServerSpec{
		serverSpec(50, 250, 0, 150),
		serverSpec(50, 250, 0, 10),
	})
	return buildController(t, []int{2}, specs, power.Constant(300), cfg)
}

// TestResilientPathMatchesSynchronous: with leases armed but never
// expiring (and no latency, loss, or failures) the resilient allocation
// path must publish the exact event stream of the synchronous one — the
// arithmetic is shared (computeChildAllocations), only the delivery
// bookkeeping differs.
func TestResilientPathMatchesSynchronous(t *testing.T) {
	run := func(lease int) []telemetry.Event {
		cfg := quietCfg()
		cfg.Eta2 = 7 // let consolidation re-derivations run too
		cfg.BudgetLeaseTicks = lease
		c := failureScenario(t, cfg)
		buf := &telemetry.Buffer{}
		c.Sink = buf
		c.Run(60)
		return buf.Events
	}
	sync := run(0)      // resilience disabled: legacy path
	res := run(1 << 20) // resilient path, lease never expires
	if len(sync) == 0 {
		t.Fatal("no events")
	}
	if !reflect.DeepEqual(sync, res) {
		if len(sync) != len(res) {
			t.Fatalf("event counts differ: %d sync, %d resilient", len(sync), len(res))
		}
		for i := range sync {
			if sync[i] != res[i] {
				t.Fatalf("event %d differs:\nsync      %+v\nresilient %+v", i, sync[i], res[i])
			}
		}
	}
}

func TestServerLeaseExpiryAndDecay(t *testing.T) {
	cfg := quietCfg()
	cfg.BudgetLeaseTicks = 3
	c := leaseScenario(t, cfg)
	c.Run(5)
	s := c.Servers[0]
	held := s.TP()
	if held <= 0 {
		t.Fatalf("no budget before the failure: %v", held)
	}

	c.FailPMU(c.Tree.Root.ID)
	// Within the lease the held budget stands unchanged.
	c.Run(3)
	if s.Degraded() {
		t.Fatal("degraded before the lease expired")
	}
	if s.TP() != held {
		t.Errorf("held budget moved within the lease: %v -> %v", held, s.TP())
	}

	// Past the lease: degraded, decaying geometrically toward the floor.
	c.Step()
	if !s.Degraded() {
		t.Fatal("lease expired but server not degraded")
	}
	if c.Stats.LeaseExpiries != 2 {
		t.Errorf("lease expiries = %d, want 2 (both servers)", c.Stats.LeaseExpiries)
	}
	floor := c.serverFloor(s)
	if held <= floor {
		t.Fatalf("scenario defeats itself: held budget %v not above floor %v", held, floor)
	}
	prev := s.TP()
	for i := 0; i < 20; i++ {
		c.Step()
		if s.TP() > prev+tolerance {
			t.Fatalf("degraded budget rose: %v -> %v", prev, s.TP())
		}
		if s.TP() < floor-tolerance {
			t.Fatalf("degraded budget fell below the floor: %v < %v", s.TP(), floor)
		}
		prev = s.TP()
	}
	if math.Abs(s.TP()-floor) > 1e-3 {
		t.Errorf("budget did not converge to the floor: %v vs %v", s.TP(), floor)
	}
	if c.Stats.DegradedTicks == 0 {
		t.Error("no degraded server-ticks accumulated")
	}
}

func TestRepairClearsDegraded(t *testing.T) {
	cfg := quietCfg()
	cfg.BudgetLeaseTicks = 3
	c := leaseScenario(t, cfg)
	buf := &telemetry.Buffer{}
	c.Sink = buf
	c.Run(5)
	c.FailPMU(c.Tree.Root.ID)
	c.FailPMU(c.Tree.Root.ID) // no-op: already dead
	if c.Stats.PMUFailures != 1 {
		t.Errorf("pmu failures = %d, want 1", c.Stats.PMUFailures)
	}
	c.Run(10)
	if !c.Servers[0].Degraded() || !c.Servers[1].Degraded() {
		t.Fatal("servers not degraded under a dead root")
	}
	decayed := c.Servers[0].TP()

	c.RepairPMU(c.Tree.Root.ID)
	c.RepairPMU(c.Tree.Root.ID) // no-op
	if c.Stats.PMURepairs != 1 {
		t.Errorf("pmu repairs = %d, want 1", c.Stats.PMURepairs)
	}
	// The refreshed lease holds the decayed budget steady (no further
	// decay), and the next supply window clears the degradation.
	c.Step()
	if c.Servers[0].Degraded() || c.Servers[1].Degraded() {
		t.Fatal("degradation survived a fresh directive after repair")
	}
	if c.Servers[0].TP() < decayed-tolerance {
		t.Errorf("repair lowered the budget further: %v -> %v", decayed, c.Servers[0].TP())
	}
	c.Run(5)
	if c.Servers[0].TP() <= decayed {
		t.Errorf("budget did not recover after repair: %v (decayed floor %v)", c.Servers[0].TP(), decayed)
	}

	// The stream carries the full enter/exit story.
	var enters, exits, fails, repairs int
	for _, e := range buf.Events {
		switch {
		case e.Kind == telemetry.KindDegraded && e.Cause == "enter":
			enters++
		case e.Kind == telemetry.KindDegraded && e.Cause == "exit":
			exits++
		case e.Kind == telemetry.KindFailure && e.Cause == "pmu-fail":
			fails++
		case e.Kind == telemetry.KindFailure && e.Cause == "pmu-repair":
			repairs++
		}
	}
	if enters != 2 || exits != 2 {
		t.Errorf("degraded enter/exit events = %d/%d, want 2/2", enters, exits)
	}
	if fails != 1 || repairs != 1 {
		t.Errorf("pmu fail/repair events = %d/%d, want 1/1", fails, repairs)
	}
}

func TestFailPMUValidation(t *testing.T) {
	c := leaseScenario(t, quietCfg())
	for _, id := range []int{-1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FailPMU(%d) did not panic", id)
				}
			}()
			c.FailPMU(id)
		}()
	}
	leaf := c.Servers[0].Node.ID
	defer func() {
		if recover() == nil {
			t.Error("FailPMU on a leaf did not panic")
		}
	}()
	c.FailPMU(leaf)
}

// TestMidTreePMUKillSafety is the acceptance scenario: kill a mid-tree
// (level-2) PMU in the 18-server {2,3,3} hierarchy and verify the
// orphaned span stays inside its hard constraints while degraded — the
// level-1 PMUs below the dead node decay their held budgets toward
// autonomous floors and keep issuing to their servers — then
// re-converges after repair.
func TestMidTreePMUKillSafety(t *testing.T) {
	cfg := quietCfg()
	cfg.Eta2 = 7
	cfg.BudgetLeaseTicks = 3
	var specs []ServerSpec
	for i := 0; i < 18; i++ {
		specs = append(specs, serverSpec(50, 250, 220, 60, 40))
	}
	c := buildController(t, []int{2, 3, 3}, uniqueIDs(specs), power.Constant(3000), cfg)
	c.Run(10)

	// Node 1 is the first level-2 PMU: servers 0-8 beneath it, via the
	// level-1 PMUs 3, 4, 5.
	deadSpan := c.Tree.Nodes[1]
	if deadSpan.Level != 2 || c.spanServers(deadSpan) != 9 {
		t.Fatalf("node 1 is not the expected mid-tree PMU (level %d, span %d)",
			deadSpan.Level, c.spanServers(deadSpan))
	}
	c.FailPMU(1)

	l1 := []int{3, 4, 5}
	prevTP := map[int]float64{}
	heldTP := map[int]float64{}
	for _, id := range l1 {
		prevTP[id] = c.pmuTP[id]
		heldTP[id] = c.pmuTP[id]
	}
	for tick := 0; tick < 30; tick++ {
		c.Step()
		for _, s := range c.Servers {
			if s.Asleep() {
				continue
			}
			if cap := s.HardCap(c.Cfg.ThermalWindow); s.Consumed() > cap+tolerance {
				t.Fatalf("tick %d: server %d consumed %v above hard cap %v",
					tick, s.Node.ServerIndex, s.Consumed(), cap)
			}
			if s.Consumed() > s.CircuitLimit+tolerance {
				t.Fatalf("tick %d: server %d consumed %v above circuit limit %v",
					tick, s.Node.ServerIndex, s.Consumed(), s.CircuitLimit)
			}
		}
		// The orphaned level-1 PMUs only ever shed while degraded.
		for _, id := range l1 {
			if c.pmuDegraded[id] && c.pmuTP[id] > prevTP[id]+tolerance {
				t.Fatalf("tick %d: degraded PMU %d budget rose %v -> %v",
					tick, id, prevTP[id], c.pmuTP[id])
			}
			prevTP[id] = c.pmuTP[id]
		}
	}
	degraded := 0
	for _, id := range l1 {
		if c.pmuDegraded[id] {
			degraded++
		}
	}
	if degraded != len(l1) {
		t.Errorf("%d of %d orphaned level-1 PMUs degraded, want all", degraded, len(l1))
	}
	// Decay never takes a budget below its floor — though a budget that
	// already sat below the floor when the lease expired simply holds
	// (degradation never raises).
	c.sumSubtrees() // pmuFloor reads the subtree sums of the current state
	for _, id := range l1 {
		bound := c.pmuFloor(c.Tree.Nodes[id])
		if held := heldTP[id]; held < bound {
			bound = held
		}
		if c.pmuTP[id] < bound-tolerance {
			t.Errorf("PMU %d decayed below its bound: %v < %v", id, c.pmuTP[id], bound)
		}
	}

	c.RepairPMU(1)
	c.Run(2 * cfg.BudgetLeaseTicks)
	for _, id := range l1 {
		if c.pmuDegraded[id] {
			t.Errorf("PMU %d still degraded after repair", id)
		}
	}
	if c.pmuDegraded[1] {
		t.Error("repaired PMU itself still degraded")
	}
	// The span draws real budget again.
	var spanTP float64
	for i := 0; i < 9; i++ {
		spanTP += c.Servers[i].TP()
	}
	if spanTP <= 0 {
		t.Error("repaired span has no budget")
	}
}

func TestSetLinkLossClamps(t *testing.T) {
	c := leaseScenario(t, quietCfg())
	c.SetLinkLoss(-0.5, 1.5)
	if c.Cfg.ReportLoss != 0 {
		t.Errorf("report loss = %v, want 0", c.Cfg.ReportLoss)
	}
	if c.Cfg.BudgetLoss >= 1 || c.Cfg.BudgetLoss < 0.99 {
		t.Errorf("budget loss = %v, want just under 1", c.Cfg.BudgetLoss)
	}
	c.SetLinkLoss(0.2, 0.3)
	if c.Cfg.ReportLoss != 0.2 || c.Cfg.BudgetLoss != 0.3 {
		t.Errorf("losses = %v/%v, want 0.2/0.3", c.Cfg.ReportLoss, c.Cfg.BudgetLoss)
	}
}

// TestBudgetLatencyDelaysDirectives: with a one-window budget pipe a
// supply step reaches servers one supply window late.
func TestBudgetLatencyDelaysDirectives(t *testing.T) {
	mk := func(latency int) *Controller {
		cfg := quietCfg()
		cfg.BudgetLatency = latency
		specs := uniqueIDs([]ServerSpec{
			serverSpec(50, 250, 0, 80),
			serverSpec(50, 250, 0, 80),
		})
		sup := power.Trace{500, 500, 500, 500, 500, 300, 300, 300, 300, 300}
		return buildController(t, []int{2}, specs, sup, cfg)
	}
	direct := mk(0)
	delayed := mk(1)
	direct.Run(5)
	delayed.Run(5)
	if direct.Servers[0].TP() != delayed.Servers[0].TP() {
		t.Fatalf("pre-step budgets differ: %v vs %v", direct.Servers[0].TP(), delayed.Servers[0].TP())
	}
	pre := direct.Servers[0].TP()
	direct.Step() // tick 5: the supply plunge lands
	delayed.Step()
	if direct.Servers[0].TP() >= pre {
		t.Fatalf("direct path did not see the plunge: %v", direct.Servers[0].TP())
	}
	if delayed.Servers[0].TP() != pre {
		t.Errorf("delayed path saw the plunge immediately: %v, want %v", delayed.Servers[0].TP(), pre)
	}
	delayed.Step()
	if delayed.Servers[0].TP() >= pre {
		t.Errorf("plunge never surfaced from the budget pipe: %v", delayed.Servers[0].TP())
	}
}
