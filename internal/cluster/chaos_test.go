package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"willow/internal/chaos"
	"willow/internal/sensor"
	"willow/internal/telemetry"
)

func TestChaosTopology(t *testing.T) {
	servers, pmus, racks, err := ChaosTopology([]int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if servers != 18 {
		t.Errorf("servers = %d, want 18", servers)
	}
	// Internal non-root nodes under {2,3,3}: two level-2 PMUs (IDs 1-2)
	// and six level-1 PMUs (IDs 3-8).
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; len(pmus) != len(want) {
		t.Fatalf("pmus = %v, want %v", pmus, want)
	} else {
		for i, id := range want {
			if pmus[i] != id {
				t.Fatalf("pmus = %v, want %v", pmus, want)
			}
		}
	}
	if len(racks) != 6 {
		t.Fatalf("racks = %v, want 6 racks", racks)
	}
	seen := map[int]bool{}
	for _, rack := range racks {
		if len(rack) != 3 {
			t.Errorf("rack %v has %d servers, want 3", rack, len(rack))
		}
		for _, s := range rack {
			if s < 0 || s >= servers || seen[s] {
				t.Errorf("rack server %d out of range or duplicated", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != servers {
		t.Errorf("racks cover %d servers, want %d", len(seen), servers)
	}

	if _, _, _, err := ChaosTopology([]int{0}); err == nil {
		t.Error("invalid fanout accepted")
	}
}

func TestApplyChaos(t *testing.T) {
	cfg := shortConfig(0.6)
	if cfg.Core.BudgetLeaseTicks != 0 {
		t.Fatalf("paper config already has leases: %d", cfg.Core.BudgetLeaseTicks)
	}
	plan, err := ApplyChaos(&cfg, "medium", 7)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Core.BudgetLeaseTicks != 2*cfg.Core.Eta1 {
		t.Errorf("leases armed to %d, want %d", cfg.Core.BudgetLeaseTicks, 2*cfg.Core.Eta1)
	}
	total := len(plan.ServerFailures) + len(plan.PMUFailures) + len(plan.LossWindows)
	if total == 0 {
		t.Fatal("medium schedule over 220 ticks expanded to an empty plan")
	}
	if got := len(cfg.Faults.ServerFailures) + len(cfg.Faults.PMUFailures) + len(cfg.Faults.LossWindows); got != total {
		t.Errorf("config holds %d fault events, plan has %d", got, total)
	}

	// An explicit lease setting survives.
	cfg2 := shortConfig(0.6)
	cfg2.Core.BudgetLeaseTicks = 12
	if _, err := ApplyChaos(&cfg2, "light", 7); err != nil {
		t.Fatal(err)
	}
	if cfg2.Core.BudgetLeaseTicks != 12 {
		t.Errorf("explicit lease overwritten to %d", cfg2.Core.BudgetLeaseTicks)
	}

	if _, err := ApplyChaos(&cfg, "no-such-preset", 7); err == nil {
		t.Error("bad spec accepted")
	}

	// Sensor faults alone arm the estimator and leave leases off.
	cfg3 := shortConfig(0.6)
	plan, err = ApplyChaos(&cfg3, "sensor-heavy", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.SensorFaults) == 0 {
		t.Fatal("sensor-heavy over 220 ticks expanded to no sensor faults")
	}
	if cfg3.Core.BudgetLeaseTicks != 0 || cfg3.Core.SensorWindow != 5 {
		t.Errorf("sensor-only plan set lease %d and window %d, want 0 and 5",
			cfg3.Core.BudgetLeaseTicks, cfg3.Core.SensorWindow)
	}
}

// TestExpandChaosHorizon expands specs on the 18-server paper fleet over
// 400 ticks: a process whose first draw lands past the horizon, even
// past the int range, schedules nothing, and a repair drawn past it
// never fires. Non-finite values are parse errors (TestParseSpecRejects
// in internal/chaos).
func TestExpandChaosHorizon(t *testing.T) {
	fanout := []int{2, 3, 3}
	for _, spec := range []string{
		"server-mtbf=1e300,server-mttr=5",
		"sensor-mtbf=1e300,sensor-bias=2",
		"loss-every=1e300,report-loss=0.2",
		"pmu-mtbf=1e300",
		"burst-every=1e300,burst-mttr=5",
	} {
		plan, err := ExpandChaos(spec, fanout, 400, 7)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !reflect.DeepEqual(plan, chaos.Plan{}) {
			t.Errorf("%s: %d server failures, %d PMU failures, %d loss windows, %d sensor faults, want none",
				spec, len(plan.ServerFailures), len(plan.PMUFailures), len(plan.LossWindows), len(plan.SensorFaults))
		}
	}

	plan, err := ExpandChaos("server-mtbf=200,server-mttr=1e300", fanout, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.ServerFailures) == 0 {
		t.Fatal("server-mtbf=200 over 400 ticks failed no server")
	}
	for _, f := range plan.ServerFailures {
		if f.RepairTick != 400 {
			t.Fatalf("server %d failed at tick %d and repairs at %d, want the horizon", f.Server, f.Tick, f.RepairTick)
		}
	}

}

// TestChaosSmoke is the end-to-end chaos gate (make chaos-smoke): a
// medium-intensity seeded schedule against the paper configuration must
// complete, stay within the thermal envelope, and actually exercise the
// failure paths it claims to.
func TestChaosSmoke(t *testing.T) {
	// medium preset, with PMU crashes made frequent enough that a
	// 220-tick horizon reliably sees several.
	const spec = "medium,pmu-mtbf=80,pmu-mttr=30"
	cfg := shortConfig(0.6)
	plan, err := ApplyChaos(&cfg, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PMUFailures) == 0 {
		t.Fatal("spec produced no PMU failures over this horizon")
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PMUFailures != len(plan.PMUFailures) {
		t.Errorf("controller saw %d PMU failures, plan had %d", r.Stats.PMUFailures, len(plan.PMUFailures))
	}
	if r.Stats.Failures != len(plan.ServerFailures) {
		t.Errorf("controller saw %d server failures, plan had %d", r.Stats.Failures, len(plan.ServerFailures))
	}
	if r.Stats.PMURepairs > r.Stats.PMUFailures {
		t.Errorf("repairs %d exceed failures %d", r.Stats.PMURepairs, r.Stats.PMUFailures)
	}
	if r.Stats.LeaseExpiries == 0 {
		t.Error("PMU crashes but no lease ever expired — degraded mode never engaged")
	}
	if r.Stats.DegradedTicks == 0 {
		t.Error("lease machinery armed but no server ticked degraded")
	}
	if r.MaxTemp > cfg.Thermal.Limit+0.5 {
		t.Errorf("max temp %.2f exceeds limit %.1f under chaos", r.MaxTemp, cfg.Thermal.Limit)
	}

	// Same seed, same config → identical outcome.
	cfg2 := shortConfig(0.6)
	if _, err := ApplyChaos(&cfg2, spec, 42); err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TotalEnergy != r.TotalEnergy || r2.MaxTemp != r.MaxTemp ||
		r2.Stats.LeaseExpiries != r.Stats.LeaseExpiries ||
		r2.Stats.DegradedTicks != r.Stats.DegradedTicks ||
		r2.Stats.Restarts != r.Stats.Restarts ||
		r2.Stats.DroppedWattTicks != r.Stats.DroppedWattTicks {
		t.Error("same chaos seed produced different runs")
	}
}

// injectRun runs cfg with a JSONL sink, offering plan to InjectPlan at
// boundary at with the given offset, and digests the Result and the
// stream. It returns InjectPlan's error.
func injectRun(t testing.TB, cfg Config, plan chaos.Plan, at, offset int) (string, error) {
	t.Helper()
	var stream bytes.Buffer
	w := telemetry.NewWriter(&stream)
	cfg.Sink = w
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var injectErr error
	for !m.Done() {
		if m.NextTick() == at {
			injectErr = m.InjectPlan(plan, offset)
		}
		m.Step()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return shaHex(append(encodeResult(m.Result()), stream.Bytes()...)), injectErr
}

// TestRunRejectsBadFaultEvents runs each malformed fault plan through
// both ways into a Machine, Config.Faults at build and InjectPlan
// mid-run, and both must return an error. Every injected plan leads
// with a valid failure, and the rejected injection must leave the
// finished run byte-identical to one never injected: nothing of a bad
// plan is queued.
func TestRunRejectsBadFaultEvents(t *testing.T) {
	cases := []struct {
		name string
		plan chaos.Plan
	}{
		{"pmu-leaf", chaos.Plan{PMUFailures: []chaos.PMUFailure{{Node: 9, Tick: 10}}}},
		{"pmu-out-of-range", chaos.Plan{PMUFailures: []chaos.PMUFailure{{Node: 99, Tick: 10}}}},
		{"loss-reversed", chaos.Plan{LossWindows: []chaos.LossWindow{{Start: 50, End: 40, ReportLoss: 0.1}}}},
		{"loss-probability", chaos.Plan{LossWindows: []chaos.LossWindow{{Start: 10, End: 40, ReportLoss: 1.5}}}},
		{"server-out-of-range", chaos.Plan{ServerFailures: []chaos.ServerFailure{{Server: 18, Tick: 10}}}},
		{"server-negative-tick", chaos.Plan{ServerFailures: []chaos.ServerFailure{{Server: 3, Tick: -1, RepairTick: 20}}}},
		{"pmu-negative-tick", chaos.Plan{PMUFailures: []chaos.PMUFailure{{Node: 3, Tick: -1, RepairTick: 20}}}},
		{"sensor-out-of-range", chaos.Plan{SensorFaults: []chaos.SensorFault{
			{Server: -1, Start: 10, End: 20, Mode: sensor.ModeBias, Magnitude: 5}}}},
		{"sensor-nan-magnitude", chaos.Plan{SensorFaults: []chaos.SensorFault{
			{Server: 3, Start: 10, End: 20, Mode: sensor.ModeNoise, Magnitude: math.NaN()}}}},
	}
	const injectAt = 30
	cfg := shortConfig(0.6)
	clean, _ := injectRun(t, cfg, chaos.Plan{}, -1, -1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := cfg
			build.Faults = tc.plan
			if _, err := NewMachine(build); err == nil {
				t.Error("NewMachine accepted the bad plan")
			}
			plan := tc.plan
			plan.ServerFailures = append([]chaos.ServerFailure{{Server: 0, Tick: 0, RepairTick: 5}}, plan.ServerFailures...)
			got, err := injectRun(t, cfg, plan, injectAt, injectAt)
			if err == nil {
				t.Error("InjectPlan accepted the bad plan")
			}
			if got != clean {
				t.Error("a rejected injection changed the run")
			}
		})
	}
}

// TestChaosPlanConversion checks ApplyPlan appends rather than
// replaces, preserving hand-written fault events.
func TestChaosPlanConversion(t *testing.T) {
	cfg := shortConfig(0.6)
	cfg.Faults.ServerFailures = []chaos.ServerFailure{{Server: 0, Tick: 5, RepairTick: 9}}
	ApplyPlan(&cfg, chaos.Plan{
		ServerFailures: []chaos.ServerFailure{{Server: 1, Tick: 20, RepairTick: 30}},
		PMUFailures:    []chaos.PMUFailure{{Node: 3, Tick: 40, RepairTick: 55}},
		LossWindows:    []chaos.LossWindow{{Start: 60, End: 80, ReportLoss: 0.2, BudgetLoss: 0.1}},
	})
	f := cfg.Faults
	if len(f.ServerFailures) != 2 || f.ServerFailures[0].Server != 0 || f.ServerFailures[1].Server != 1 {
		t.Errorf("failures = %+v", f.ServerFailures)
	}
	if len(f.PMUFailures) != 1 || f.PMUFailures[0].Node != 3 {
		t.Errorf("pmu failures = %+v", f.PMUFailures)
	}
	if len(f.LossWindows) != 1 || f.LossWindows[0].BudgetLoss != 0.1 {
		t.Errorf("loss windows = %+v", f.LossWindows)
	}
}

// fuzzTick decodes a fault tick: a signed byte, so ticks fall before
// the run, inside it and past its horizon, except 0x7f, the largest
// int, which probes offset overflow.
func fuzzTick(b byte) int {
	if b == 0x7f {
		return math.MaxInt
	}
	return int(int8(b))
}

// fuzzFloat decodes a loss probability or magnitude: a signed byte
// over 64, so values fall inside and outside [0, 1), except the top
// three bytes, which are NaN and the infinities.
func fuzzFloat(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	}
	return float64(int8(b)) / 64
}

// fuzzTicks is FuzzFaultPlan's horizon, short to keep runs cheap.
const fuzzTicks = 48

// decodeFaultPlan turns fuzz bytes into an injection on a fuzzTicks
// run: a boundary, an offset from it in [-3, 3], and up to eight
// events of any kind. Each event is a kind byte and four field bytes;
// indices are signed bytes, so they may be negative or out of range.
// Missing bytes read as zero.
func decodeFaultPlan(data []byte) (at, offset int, plan chaos.Plan) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	at = int(next()) % fuzzTicks
	offset = at + int(int8(next()))%4
	for e := 0; e < 8 && len(data) > 0; e++ {
		kind, a, b, c, d := next()%4, next(), next(), next(), next()
		switch kind {
		case 0:
			plan.ServerFailures = append(plan.ServerFailures, chaos.ServerFailure{
				Server: int(int8(a)), Tick: fuzzTick(b), RepairTick: fuzzTick(c)})
		case 1:
			plan.PMUFailures = append(plan.PMUFailures, chaos.PMUFailure{
				Node: int(int8(a)), Tick: fuzzTick(b), RepairTick: fuzzTick(c)})
		case 2:
			plan.LossWindows = append(plan.LossWindows, chaos.LossWindow{
				Start: fuzzTick(a), End: fuzzTick(b), ReportLoss: fuzzFloat(c), BudgetLoss: fuzzFloat(d)})
		case 3:
			plan.SensorFaults = append(plan.SensorFaults, chaos.SensorFault{
				Server: int(int8(a)), Start: fuzzTick(b), End: fuzzTick(c),
				Mode: sensor.Mode(d % 8), Magnitude: 10 * fuzzFloat(d)})
		}
	}
	return at, offset, plan
}

// FuzzFaultPlan injects a decoded fault plan into a short 18-server
// run. Nothing may panic; a rejected plan must leave the run
// byte-identical to one never injected, and an accepted plan must
// produce the same run on two machines.
func FuzzFaultPlan(f *testing.F) {
	// One accepted plan of every kind, then one input per rejection
	// branch of InjectPlan, in its order.
	f.Add([]byte{30, 0, 0, 3, 5, 20, 0, 1, 4, 0, 10, 0, 2, 2, 12, 13, 6, 3, 1, 0, 40, 2})
	f.Add([]byte{30, 0xff, 0, 3, 5, 20, 0})   // offset before NextTick
	f.Add([]byte{30, 0, 0, 18, 5, 20, 0})     // server out of range
	f.Add([]byte{30, 0, 0, 3, 0xf0, 20, 0})   // server failure before the run
	f.Add([]byte{30, 0, 1, 9, 5, 20, 0})      // PMU node a leaf
	f.Add([]byte{30, 0, 1, 4, 0xf0, 20, 0})   // PMU failure before the run
	f.Add([]byte{30, 0, 2, 20, 10, 6, 6})     // loss window reversed
	f.Add([]byte{30, 0, 2, 2, 12, 0xff, 6})   // loss probability NaN
	f.Add([]byte{30, 0, 3, 0xff, 0, 40, 2})   // sensor server out of range
	f.Add([]byte{30, 0, 3, 1, 0xf0, 40, 2})   // sensor fault before the run
	f.Add([]byte{30, 0, 3, 1, 0, 40, 0xfe})   // sensor magnitude infinite
	f.Add([]byte{47, 0, 0, 3, 0x7f, 0x7f, 0}) // past the horizon, overflow probe

	cfg := shortConfig(0.7)
	cfg.Warmup, cfg.Ticks = 8, fuzzTicks
	clean, _ := injectRun(f, cfg, chaos.Plan{}, -1, -1)
	f.Fuzz(func(t *testing.T, data []byte) {
		at, offset, plan := decodeFaultPlan(data)
		got, err := injectRun(t, cfg, plan, at, offset)
		if err != nil {
			if got != clean {
				t.Fatalf("rejected plan (%v) changed the run: %+v at %d", err, plan, offset)
			}
			return
		}
		if again, _ := injectRun(t, cfg, plan, at, offset); again != got {
			t.Fatalf("accepted plan %+v at %d ran differently on two machines", plan, offset)
		}
	})
}
