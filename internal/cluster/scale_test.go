package cluster

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"willow/internal/power"
	"willow/internal/telemetry"
)

// fleetConfig builds a paper-style config over an arbitrary fanout with
// supply sized to the fleet, for the fleet-scale tests and benchmarks.
func fleetConfig(fanout []int, supplyFrac float64) Config {
	n := 1
	for _, f := range fanout {
		n *= f
	}
	cfg := PaperConfig(0.5)
	cfg.Fanout = fanout
	cfg.Supply = power.Constant(supplyFrac * float64(n) * 450)
	if n < 18 {
		// The paper config's hot zone indexes servers 14-17.
		cfg.HotServers = nil
		cfg.HotAmbient = 0
	}
	return cfg
}

// TestShardInvariance is the sharding determinism contract: the same
// fleet must produce byte-identical event streams and Results for any
// shard count, because parallel phases touch only per-server state and
// every cross-server float accumulation runs sequentially in server
// order. The quiet variant (noise off) shards both the demand and the
// consumption phase of the 10,000-server tick; the noisy variant keeps
// demand observation serial (it consumes a shared random stream) and
// shards consumption only. The sensed variants run the medium sensor
// chaos plan, with the naive instruments and with the robust estimator
// armed, whose sensing and estimator updates run in the sharded settle.
// The consolidating variant runs a lightly loaded fleet that sleeps
// most of its servers within the run, so the Machine's measurement,
// made in the settle on each server's own shard, compares its asleep
// branch and its level-0 imbalance across shard counts too. The
// deficit variant runs the deficit-steps supply trace with 8-tick
// leases and the estimator armed, so servers shed and run the
// estimator in the same tick. The
// QoS-shedding variant has servers shed and servers served in full
// within one tick (see TestShardInvariance/1k-qos-shedding). Every
// variant compares shards 2, 3, 4 and 8 against one; 3 splits the
// fleets' racks unevenly.
func TestShardInvariance(t *testing.T) {
	// deficitSteps is willowd's deficit-steps supply trace, per supply
	// window as fractions of rated power.
	deficitSteps := []float64{1, 1, 0.6, 0.6, 0.9, 1, 0.55, 1}
	cases := []struct {
		name   string
		fanout []int
		noise  float64
		sensor string    // sensor-* chaos spec; empty attaches no sensors
		window int       // Core.SensorWindow; non-zero arms the estimator
		util   float64   // non-zero overrides the fleet's utilization
		supply []float64 // supply trace as fractions of rated; nil is 85 % constant
		lease  int       // Core.BudgetLeaseTicks
	}{
		{"10k-quiet", []int{10, 10, 10, 10}, -1, "", 0, 0, nil, 0},
		{"1k-noisy", []int{10, 10, 10}, 25, "", 0, 0, nil, 0},
		{"1k-sensed", []int{10, 10, 10}, -1, "sensor-medium", 0, 0, nil, 0},
		{"1k-sensed-estimator", []int{10, 10, 10}, -1, "sensor-medium", 5, 0, nil, 0},
		{"1k-consolidating", []int{10, 10, 10}, -1, "", 0, 0.15, nil, 0},
		{"1k-deficit-estimator", []int{10, 10, 10}, 25, "", 5, 0, deficitSteps, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := fleetConfig(tc.fanout, 0.85)
			if tc.util > 0 {
				base.Utilization = tc.util
			}
			if tc.supply != nil {
				rated := base.ServerPower.Peak
				for _, f := range tc.fanout {
					rated *= float64(f)
				}
				trace := make(power.Trace, len(tc.supply))
				for i, f := range tc.supply {
					trace[i] = f * rated
				}
				base.Supply = trace
			}
			base.Core.NoiseLambda = tc.noise
			base.Core.SensorWindow = tc.window
			base.Core.BudgetLeaseTicks = tc.lease
			base.Warmup = 8
			base.Ticks = 24
			if tc.sensor != "" {
				plan, err := ApplyChaos(&base, tc.sensor, 42)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.SensorFaults) == 0 {
					t.Fatal("sensor chaos plan injects no faults")
				}
			}
			run := func(shards int) goldenScenario {
				cfg := base
				cfg.Core.Shards = shards
				return captureScenario(t, cfg)
			}
			if tc.util > 0 || tc.supply != nil {
				r, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				slept := 0.0
				for _, f := range r.AsleepFraction {
					slept += f
				}
				if tc.util > 0 && slept == 0 {
					t.Fatal("consolidating fleet slept no server")
				}
				if tc.supply != nil && r.Stats.DroppedWattTicks == 0 {
					t.Fatal("deficit fleet shed no demand")
				}
			}
			assertShardInvariant(t, run)
		})
	}

	// A fleet under its demand, with three QoS classes and demand noise:
	// in one tick some servers shed while the rest are served in full,
	// and every server's service records, drops and events land in its
	// shard's output for the merge to fold in server order. Partway
	// through, sensor chaos on a subset of servers arrives live and
	// attaches an instrument to every server.
	t.Run("1k-qos-shedding", func(t *testing.T) {
		base := fleetConfig([]int{10, 10, 10}, 0.6)
		base.PriorityClasses = 3
		base.Warmup = 8
		base.Ticks = 24
		const at = 14
		plan, err := ExpandChaos("sensor-medium", base.Fanout, base.Ticks-at, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.SensorFaults) == 0 {
			t.Fatal("sensor chaos plan injects no faults")
		}
		interleaved := false
		run := func(shards int) goldenScenario {
			cfg := base
			cfg.Core.Shards = shards
			var stream bytes.Buffer
			w := telemetry.NewWriter(&stream)
			var tick telemetry.Buffer
			cfg.Sink = telemetry.Multi(w, &tick)
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for !m.Done() {
				if m.NextTick() == at {
					if err := m.InjectPlan(plan, at); err != nil {
						t.Fatal(err)
					}
				}
				m.Step()
				// Before the sensors arrive, a server that published a QoS
				// violation shed; every other awake server was served in
				// full.
				shed := map[int]bool{}
				for _, e := range tick.Events {
					if e.Kind == telemetry.KindQoSViolation {
						shed[e.Server] = true
					}
				}
				tick.Events = tick.Events[:0]
				awake := len(m.Controller().Servers) - m.Controller().AsleepCount()
				if m.NextTick() <= at && len(shed) > 0 && len(shed) < awake {
					interleaved = true
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return goldenScenario{Result: shaHex(encodeResult(m.Result())), Events: shaHex(stream.Bytes())}
		}
		assertShardInvariant(t, run)
		if !interleaved {
			t.Fatal("no tick had both shedding servers and servers served in full")
		}
	})
}

// assertShardInvariant compares run's digests for shards 2, 3, 4 and 8
// against the single-threaded run's.
func assertShardInvariant(t *testing.T, run func(shards int) goldenScenario) {
	t.Helper()
	want := run(1)
	for _, shards := range []int{2, 3, 4, 8} {
		got := run(shards)
		if got.Events != want.Events {
			t.Errorf("shards=%d: event stream diverged from single-threaded run", shards)
		}
		if got.Result != want.Result {
			t.Errorf("shards=%d: Result diverged from single-threaded run", shards)
		}
	}
}

// TestScaleDemandEdgeCases covers the live-injection validation
// contract: invalid factors and servers are rejected without mutating
// any application, and a zero factor (drain a server's demand to
// nothing) is legal.
func TestScaleDemandEdgeCases(t *testing.T) {
	cfg := fleetConfig([]int{4, 4}, 1)
	cfg.Warmup = 2
	cfg.Ticks = 40
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	means := func(server int) []float64 {
		var out []float64
		for _, a := range m.Controller().Servers[server].Apps.Apps {
			out = append(out, a.Mean)
		}
		return out
	}
	before := means(0)
	for _, f := range []float64{-1, -0.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.ScaleDemand(0, f); err == nil {
			t.Errorf("factor %v accepted", f)
		}
	}
	for _, server := range []int{-2, 16, 99} {
		if err := m.ScaleDemand(server, 1.1); err == nil {
			t.Errorf("server %d accepted", server)
		}
	}
	after := means(0)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rejected injection mutated app %d: %v -> %v", i, before[i], after[i])
		}
	}
	// Zero factor is a legal drain, and the machine keeps running.
	if err := m.ScaleDemand(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, mean := range means(0) {
		if mean != 0 {
			t.Fatalf("zero factor left mean %v", mean)
		}
	}
	for !m.Done() {
		m.Step()
	}
	if r := m.Result(); len(r.MeanPower) != 16 {
		t.Fatalf("run did not complete: %d servers measured", len(r.MeanPower))
	}
}

// TestScaleDemandReplay: a mid-run injection is part of the replayable
// input — two machines fed the same config and the same injection at
// the same tick produce byte-identical streams and Results, and the
// injection actually changes the run.
func TestScaleDemandReplay(t *testing.T) {
	cfg := fleetConfig([]int{4, 4, 4}, 0.85)
	cfg.Warmup = 4
	cfg.Ticks = 48
	capture := func(scaleAt int, factor float64) goldenScenario {
		c := cfg
		var stream bytes.Buffer
		w := telemetry.NewWriter(&stream)
		c.Sink = w
		m, err := NewMachine(c)
		if err != nil {
			t.Fatal(err)
		}
		for !m.Done() {
			if m.NextTick() == scaleAt {
				if err := m.ScaleDemand(-1, factor); err != nil {
					t.Fatal(err)
				}
			}
			m.Step()
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return goldenScenario{Result: shaHex(encodeResult(m.Result())), Events: shaHex(stream.Bytes())}
	}
	a := capture(20, 1.4)
	b := capture(20, 1.4)
	if a != b {
		t.Error("identical mid-run injections diverged on replay")
	}
	plain := capture(20, 1)
	if a.Events == plain.Events {
		t.Error("demand injection had no observable effect")
	}
}

// TestScaleDemandWithProfile pins the baseMeans interaction: with a
// DemandProfile active, each epoch rewrites every app's Mean from its
// profile baseline, so an injection that scaled only Mean would be
// silently undone one epoch later. ScaleDemand must scale the baseline
// too.
func TestScaleDemandWithProfile(t *testing.T) {
	cfg := fleetConfig([]int{4, 4}, 1)
	cfg.DemandProfile = power.Constant(1)
	cfg.Warmup = 2
	cfg.Ticks = 60
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := cfg.Core.Eta1
	if epoch == 0 {
		epoch = 4
	}
	for i := 0; i < 2*epoch; i++ {
		m.Step()
	}
	apps := m.Controller().Servers[3].Apps.Apps
	before := make([]float64, len(apps))
	for i, a := range apps {
		before[i] = a.Mean
	}
	if err := m.ScaleDemand(3, 0.5); err != nil {
		t.Fatal(err)
	}
	// Cross at least one epoch boundary so the profile rescale runs.
	for i := 0; i < 2*epoch; i++ {
		m.Step()
	}
	for i, a := range apps {
		if want := before[i] * 0.5; a.Mean != want {
			t.Errorf("app %d mean %v after epoch rescale, want %v (baseline not scaled?)", i, a.Mean, want)
		}
	}
}

// benchFleet measures the steady-state cost of one Machine.Step across
// a fleet, reported as ns per server-tick. Noise is disabled so the
// demand phase shards and the smoother's fixed-point fast path engages,
// matching the fleet-scale deployment profile.
func benchFleet(b *testing.B, fanout []int, shards int) {
	n := 1
	for _, f := range fanout {
		n *= f
	}
	cfg := fleetConfig(fanout, 1)
	cfg.Core.NoiseLambda = -1
	cfg.Core.Shards = shards
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
	perServerTick := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
	b.ReportMetric(perServerTick, "ns/server-tick")
}

// primeGoroutineFreeLists holds 64 goroutines per P (plus one P's worth)
// alive at once, then lets them exit. The sharded tick starts a
// goroutine per shard per phase, and the runtime serves each from
// per-P free lists that each bank up to 64 exited goroutines before
// sharing them. Until every P has banked its share, some starts
// allocate a fresh goroutine, so a short benchmark on a host with
// more than 2 Ps counted that one-time growth as per-Step allocations.
// With this many goroutines in circulation the lists never run dry,
// and allocs/op measures the tick's steady state at any GOMAXPROCS.
func primeGoroutineFreeLists() {
	n := 64 * (runtime.GOMAXPROCS(0) + 1)
	var wg sync.WaitGroup
	release := make(chan struct{})
	wg.Add(n)
	for range n {
		go func() {
			<-release
			wg.Done()
		}()
	}
	close(release)
	wg.Wait()
}

func BenchmarkFleetTick(b *testing.B) {
	b.Run("1k", func(b *testing.B) { benchFleet(b, []int{10, 10, 10}, 8) })
	b.Run("10k", func(b *testing.B) { benchFleet(b, []int{10, 10, 10, 10}, 8) })
	b.Run("100k", func(b *testing.B) { benchFleet(b, []int{4, 5, 5, 10, 100}, 8) })
}
