package cluster

import (
	"testing"
)

// TestPolicyWillowIdentity is the byte-identity pin of the policy seam:
// selecting the "willow" policy must reproduce the default (nil-policy)
// controller exactly — same event stream, same Result — because every
// hook of policy.Willow declines and the built-in arithmetic runs. The
// 1k-server fleet exercises the sharded consume path (caps refresh
// through the policy on every shard) at multiple shard counts, and the
// default Poisson noise keeps the controller's random streams live, so
// a policy that consumed randomness or perturbed a float would diverge.
func TestPolicyWillowIdentity(t *testing.T) {
	fanout := []int{10, 10, 10}
	for _, shards := range []int{1, 4} {
		base := fleetConfig(fanout, 0.85)
		base.Warmup = 8
		base.Ticks = 24
		base.Core.Shards = shards

		want := captureScenario(t, base)

		sel := base
		sel.Policy = "willow"
		got := captureScenario(t, sel)

		if got.Events != want.Events {
			t.Errorf("shards=%d: willow policy event stream diverged from the default controller", shards)
		}
		if got.Result != want.Result {
			t.Errorf("shards=%d: willow policy Result diverged from the default controller", shards)
		}
	}
}

// TestPolicyShardInvariance extends the sharding determinism contract
// to the stateful policies: integral and mpc keep all ThermalCap state
// in per-server slots, so any shard count must produce byte-identical
// runs (and the race detector sees the concurrent solver writes). The
// sensed variant arms the estimator, runs the medium sensor chaos plan
// and sheds three QoS classes at 60 % supply, so a sensed or shedding
// server's cap refresh runs inside the consume phase's settle too.
func TestPolicyShardInvariance(t *testing.T) {
	for _, sensed := range []bool{false, true} {
		for _, pol := range []string{"integral", "mpc"} {
			name, supply := pol, 0.85
			if sensed {
				name, supply = pol+"-sensed", 0.6
			}
			t.Run(name, func(t *testing.T) {
				base := fleetConfig([]int{10, 10, 10}, supply)
				base.Warmup = 8
				base.Ticks = 24
				base.Policy = pol
				if sensed {
					base.PriorityClasses = 3
					base.Core.SensorWindow = 5
					base.Core.SensorGate = 3
					base.Core.SensorTrips = 3
					base.Core.SensorGuard = 2
					plan, err := ApplyChaos(&base, "sensor-medium", 42)
					if err != nil {
						t.Fatal(err)
					}
					if len(plan.SensorFaults) == 0 {
						t.Fatal("sensor chaos plan injects no faults")
					}
				}
				assertShardInvariant(t, func(shards int) goldenScenario {
					cfg := base
					cfg.Core.Shards = shards
					return captureScenario(t, cfg)
				})
			})
		}
	}
}

// benchFleetPolicy measures Machine.Step with a controller policy
// selected, same shape as benchFleet: 1k servers, sharded, noise off.
func benchFleetPolicy(b *testing.B, pol string) {
	fanout := []int{10, 10, 10}
	cfg := fleetConfig(fanout, 1)
	cfg.Core.NoiseLambda = -1
	cfg.Core.Shards = 8
	cfg.Policy = pol
	cfg.Warmup = 1
	cfg.Ticks = 1 << 30
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m.Step()
	}
	primeGoroutineFreeLists()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
	b.StopTimer()
	perServerTick := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1000
	b.ReportMetric(perServerTick, "ns/server-tick")
}

// BenchmarkFleetTickPolicy prices policy dispatch on the hot path: the
// willow row must match the nil-policy BenchmarkFleetTick/1k allocation
// profile (the seam adds interface calls, not allocations), and the
// integral/mpc rows price the alternative controllers' per-tick state
// updates.
func BenchmarkFleetTickPolicy(b *testing.B) {
	for _, pol := range []string{"willow", "integral", "mpc"} {
		b.Run(pol, func(b *testing.B) { benchFleetPolicy(b, pol) })
	}
}
