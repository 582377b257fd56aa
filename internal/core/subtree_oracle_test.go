package core_test

import (
	"math/rand"
	"testing"

	"willow/internal/core"
	"willow/internal/dist"
	"willow/internal/policy"
	"willow/internal/power"
	"willow/internal/thermal"
	"willow/internal/topo"
	"willow/internal/workload"
)

// phaseHook adapts a closure to core.PhaseObserver.
type phaseHook func(phase string)

func (f phaseHook) ObservePhase(phase string, _ float64) { f(phase) }

// TestSubtreeSumsMatchRecursiveOracle checks, at every supply window,
// the subtree caps and floors the allocation pass just summed bottom-up
// against the recursive per-level form, bit for bit. Random irregular
// topologies run with consolidation putting servers to sleep, crashed
// servers, hot thermal models whose caps bind, armed sensing, the
// integral policy's ThermalCap and the resilient (lease) allocation
// path. The "allocate" phase hook fires right after the pass, before
// anything moves a cap or a sleep flag.
func TestSubtreeSumsMatchRecursiveOracle(t *testing.T) {
	var checks, asleep, sensed, integral, resilient int
	for seed := int64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		levels := make([][]int, 1+rng.Intn(3))
		width := 1
		for d := range levels {
			levels[d] = make([]int, width)
			width = 0
			for i := range levels[d] {
				levels[d][i] = 1 + rng.Intn(4)
				width += levels[d][i]
			}
		}
		tree, err := topo.BuildIrregular(levels)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]core.ServerSpec, tree.NumServers())
		appID := 0
		for i := range specs {
			static := 40 + 40*rng.Float64()
			specs[i] = core.ServerSpec{
				Power: power.ServerModel{Static: static, Peak: static + 100 + 150*rng.Float64()},
				Thermal: thermal.Model{
					C1: 0.002 + 0.02*rng.Float64(), C2: 0.05 + 0.1*rng.Float64(),
					Ambient: 25, Limit: 70,
				},
			}
			if rng.Intn(3) == 0 {
				specs[i].CircuitLimit = static + 60 + 100*rng.Float64()
			}
			for a := rng.Intn(4); a > 0; a-- {
				mean := 5 + 80*rng.Float64()
				specs[i].Apps = append(specs[i].Apps, &workload.App{
					ID:       appID,
					Class:    workload.Class{Name: "vm", Weight: mean},
					Mean:     mean,
					Priority: rng.Intn(3),
				})
				appID++
			}
		}
		eta1 := 1 + rng.Intn(4)
		cfg := core.Config{
			Alpha:            0.5,
			Eta1:             eta1,
			Eta2:             eta1 + 1 + rng.Intn(5),
			PMin:             5,
			MigCostWatts:     2,
			ConsolidateBelow: 0.4 * rng.Float64(),
			PingPongWindow:   20,
			WakeLatency:      2,
			ThermalWindow:    4,
			ThermalDt:        1,
			NoiseLambda:      float64(rng.Intn(2) * 20),
		}
		if rng.Intn(2) == 0 {
			cfg.SensorWindow = 5
		}
		if rng.Intn(2) == 0 {
			cfg.BudgetLeaseTicks = 6
		}
		if rng.Intn(2) == 0 {
			pol, err := policy.New("integral")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = pol
		}
		rated := 0.0
		for _, s := range specs {
			rated += s.Power.Peak
		}
		supply := power.Trace{rated, 0.6 * rated, 0.35 * rated, 0.8 * rated}
		c, err := core.New(tree, specs, supply, cfg, dist.NewSource(uint64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		c.Phases = phaseHook(func(phase string) {
			if phase != "allocate" {
				return
			}
			if err := c.CheckSubtreeSums(); err != nil {
				t.Fatalf("seed %d tick %d: %v", seed, c.Tick(), err)
			}
			checks++
			if c.AsleepCount() > 0 {
				asleep++
			}
			if cfg.SensorWindow > 0 {
				sensed++
			}
			if cfg.Policy != nil {
				integral++
			}
			if cfg.BudgetLeaseTicks > 0 {
				resilient++
			}
		})
		for tick := 0; tick < 80; tick++ {
			if tick == 30 && tree.NumServers() > 1 {
				c.FailServer(rng.Intn(tree.NumServers()))
			}
			c.Step()
		}
	}
	if asleep == 0 || sensed == 0 || integral == 0 || resilient == 0 {
		t.Fatalf("coverage: %d checks, %d with sleeping servers, %d sensing, %d integral, %d resilient — want every kind",
			checks, asleep, sensed, integral, resilient)
	}
	t.Logf("%d checks: %d with sleeping servers, %d sensing, %d integral, %d resilient", checks, asleep, sensed, integral, resilient)
}
