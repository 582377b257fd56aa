package core

import (
	"math"
	"testing"

	"willow/internal/power"
)

func TestReportPipeZeroLatency(t *testing.T) {
	p := &reportPipe{}
	if got := p.push(5, false); got != 5 {
		t.Errorf("zero-latency pipe delivered %v, want 5", got)
	}
	if got := p.push(7, false); got != 7 {
		t.Errorf("zero-latency pipe delivered %v, want 7", got)
	}
}

func TestReportPipeDelays(t *testing.T) {
	p := &reportPipe{buf: make([]float64, 2)}
	// First push primes the pipe: value visible immediately.
	if got := p.push(1, false); got != 1 {
		t.Errorf("primed pipe delivered %v, want 1", got)
	}
	// Subsequent pushes surface two ticks later.
	if got := p.push(2, false); got != 1 {
		t.Errorf("t1 delivered %v, want 1 (priming value)", got)
	}
	if got := p.push(3, false); got != 1 {
		t.Errorf("t2 delivered %v, want 1", got)
	}
	if got := p.push(4, false); got != 2 {
		t.Errorf("t3 delivered %v, want 2 (pushed at t1)", got)
	}
	if got := p.push(5, false); got != 3 {
		t.Errorf("t4 delivered %v, want 3", got)
	}
}

func TestReportPipeLossRepeatsLast(t *testing.T) {
	p := &reportPipe{buf: make([]float64, 1)}
	p.push(10, false)
	p.push(20, false)
	// A lost report repeats the previous pushed value (20), not the new
	// one (99).
	p.push(99, true)
	if got := p.push(0, false); got != 20 {
		t.Errorf("after loss, delayed delivery = %v, want repeated 20", got)
	}
}

func TestConfigRejectsBadAsyncKnobs(t *testing.T) {
	if _, err := (Config{ReportLatency: -1}).withDefaults(); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := (Config{ReportLoss: 1.0}).withDefaults(); err == nil {
		t.Error("loss of 1.0 accepted")
	}
}

// TestSynchronousUnchangedByAsyncCode: with zero latency and loss the
// controller must behave exactly as before the async machinery existed.
func TestSynchronousUnchangedByAsyncCode(t *testing.T) {
	specs := uniqueIDs([]ServerSpec{
		serverSpec(50, 200, 150, 60, 60),
		serverSpec(50, 200, 0, 10),
		serverSpec(50, 200, 0, 10),
	})
	c := buildController(t, []int{3}, specs, power.Constant(550), quietCfg())
	if c.asyncEnabled() {
		t.Fatal("async enabled with zero knobs")
	}
	c.Run(20)
	if got := c.Stats.DemandMigrations; got != 1 {
		t.Errorf("demand migrations = %d, want 1 (the synchronous scenario)", got)
	}
}

// TestStaleViewDelaysReaction: with report latency, the controller reacts
// to a demand *step* only after the report pipe delivers it. (A deficit
// present from tick 0 is seen instantly because the first report primes
// the pipe.)
func TestStaleViewDelaysReaction(t *testing.T) {
	run := func(latency int) int {
		specs := uniqueIDs([]ServerSpec{
			serverSpec(50, 200, 150, 40, 40), // comfortable at first
			serverSpec(50, 200, 0, 10),
			serverSpec(50, 200, 0, 10),
		})
		cfg := quietCfg()
		cfg.ReportLatency = latency
		c := buildController(t, []int{3}, specs, power.Constant(550), cfg)
		c.Run(3) // prime pipes with the calm demand
		// Demand step: server 0 now wants 170 W against its 150 W cap.
		c.Servers[0].Apps.Apps[0].Mean = 80
		for tick := 3; tick < 40; tick++ {
			c.Step()
			if len(c.Stats.Migrations) > 0 {
				return c.Stats.Migrations[0].Tick
			}
		}
		return -1
	}
	sync := run(0)
	delayed := run(4)
	if sync != 3 {
		t.Fatalf("synchronous reaction at tick %d, want 3 (the step tick)", sync)
	}
	if delayed != sync+4 {
		t.Errorf("delayed reaction at tick %d, want %d (step + latency)", delayed, sync+4)
	}
}

// TestViewCPTracksPipe: the parent's view lags the server's true demand.
func TestViewCPTracksPipe(t *testing.T) {
	specs := uniqueIDs([]ServerSpec{
		serverSpec(50, 200, 0, 30),
		serverSpec(50, 200, 0, 30),
	})
	cfg := quietCfg()
	cfg.ReportLatency = 3
	c := buildController(t, []int{2}, specs, power.Constant(500), cfg)
	c.Step()
	s := c.Servers[0]
	// Priming: view equals truth initially.
	if got := c.viewCP(s); math.Abs(got-s.CP()) > 1e-9 {
		t.Fatalf("primed view %v != CP %v", got, s.CP())
	}
	// Change true demand: the view must hold the old value for a while.
	s.Apps.Apps[0].Mean = 100
	old := s.CP()
	c.Step()
	if s.CP() == old {
		t.Fatal("true CP did not move")
	}
	if got := c.viewCP(s); math.Abs(got-old) > 1e-9 {
		t.Errorf("view %v moved immediately, want stale %v", got, old)
	}
	// After the latency elapses the view catches up.
	c.Run(4)
	if got := c.viewCP(s); math.Abs(got-s.CP()) > 1e-9 {
		t.Errorf("view %v never caught up to CP %v", got, s.CP())
	}
}

// TestAsyncChurnsMoreThanSync: staleness comparable to Δ_D degrades
// decisions — more migrations and/or more shed demand on the same noisy
// workload, which is the §V-A1 instability the Δ_D ≥ 10·h·α rule avoids.
func TestAsyncChurnsMoreThanSync(t *testing.T) {
	run := func(latency int) (int, float64) {
		specs := uniqueIDs([]ServerSpec{
			serverSpec(50, 200, 120, 60, 30),
			serverSpec(50, 200, 0, 20),
			serverSpec(50, 200, 0, 40),
			serverSpec(50, 200, 0, 10),
		})
		for _, sp := range specs {
			for _, a := range sp.Apps {
				a.NoiseLambda = 15
			}
		}
		cfg := quietCfg()
		cfg.Alpha = 0.3
		cfg.ReportLatency = latency
		c := buildController(t, []int{2, 2}, specs, power.Trace{420, 380, 430, 370, 410}, cfg)
		c.Run(150)
		return len(c.Stats.Migrations), c.Stats.DroppedWattTicks
	}
	syncMigs, syncDrop := run(0)
	asyncMigs, asyncDrop := run(8)
	if asyncMigs <= syncMigs && asyncDrop <= syncDrop+1 {
		t.Errorf("staleness showed no degradation: sync (%d migs, %.0f dropped) vs async (%d, %.0f)",
			syncMigs, syncDrop, asyncMigs, asyncDrop)
	}
}

// TestReportLossDeterministic: loss draws come from the controller's
// seeded source, so runs stay reproducible.
func TestReportLossDeterministic(t *testing.T) {
	run := func() float64 {
		specs := uniqueIDs([]ServerSpec{
			serverSpec(50, 200, 120, 60, 30),
			serverSpec(50, 200, 0, 20),
		})
		for _, sp := range specs {
			for _, a := range sp.Apps {
				a.NoiseLambda = 15
			}
		}
		cfg := quietCfg()
		cfg.ReportLoss = 0.4
		cfg.ReportLatency = 1
		c := buildController(t, []int{2}, specs, power.Constant(350), cfg)
		var energy float64
		for i := 0; i < 80; i++ {
			c.Step()
			energy += c.TotalConsumed()
		}
		return energy
	}
	if a, b := run(), run(); a != b {
		t.Errorf("lossy runs diverged: %v vs %v", a, b)
	}
}

// TestLossWindowRestartsReportPipes: a closed report-loss window leaves
// no stale value in the pipes. Here a 2-server rack reports 300 W
// through a first window, demand rises to 450 W under synchronous
// reporting, and a second window opens: its first lost reports must
// repeat what the parent last heard (450 W), not the value the first
// window left in the pipes (300 W).
func TestLossWindowRestartsReportPipes(t *testing.T) {
	specs := uniqueIDs([]ServerSpec{
		serverSpec(50, 300, 0, 100),
		serverSpec(50, 300, 0, 100),
	})
	c := buildController(t, []int{2}, specs, power.Constant(1000), quietCfg())
	root := c.Tree.Root.ID
	c.Run(2)
	c.SetLinkLoss(1, 0) // clamped just below 1: every report after the first is lost
	c.Run(3)
	if got := c.pmuCP[root]; got != 300 {
		t.Fatalf("root CP %v in the first window, want 300", got)
	}
	c.SetLinkLoss(0, 0)
	for _, s := range c.Servers {
		s.Apps.Apps[0].Mean = 175
	}
	c.Run(3)
	if got := c.pmuCP[root]; got != 450 {
		t.Fatalf("root CP %v under synchronous reporting, want 450", got)
	}
	c.SetLinkLoss(1, 0)
	c.Step()
	if got := c.pmuCP[root]; got != 450 {
		t.Errorf("root CP %v on the second window's first tick, want 450 (a stale report replayed)", got)
	}
}
