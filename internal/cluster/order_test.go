package cluster

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"willow/internal/chaos"
	"willow/internal/sensor"
	"willow/internal/telemetry"
)

// firingOrderPin digests orderRun's Result and JSONL event stream. It
// was captured on the event-heap Machine, so it pins when every queued
// fault fires: against the other faults of its tick and against the
// tick body.
const firingOrderPin = "d763e212c731f2f4aaa3cc057142f95c42b9d6108c70c3ebceb7fd9f9cdbdcb8"

// orderTicks is orderRun's horizon.
const orderTicks = 120

// orderInjection is a live plan orderRun injects at boundary at.
type orderInjection struct {
	at   int
	plan chaos.Plan
}

// orderRun is one 18-server run whose faults cover every firing rule:
// build-time faults at tick 0 and at the collision tick 40, live
// injections at NextTick 0 (before any Step), at 30 for tick 40, twice
// at 40 itself and on the final tick, relative-tick-0 events, a loss
// window ending on the tick another starts, and events past the
// horizon. It returns encodeResult's bytes followed by the stream.
func orderRun(t *testing.T) []byte {
	t.Helper()
	cfg := shortConfig(0.7)
	cfg.Warmup, cfg.Ticks = 20, orderTicks
	cfg.Core.BudgetLeaseTicks = 8
	ApplyPlan(&cfg, chaos.Plan{
		ServerFailures: []chaos.ServerFailure{
			{Server: 9, Tick: 200}, // past the horizon
			{Server: 5, Tick: 40, RepairTick: 70},
			{Server: 2, Tick: 0, RepairTick: 30},
		},
		PMUFailures: []chaos.PMUFailure{
			{Node: 3, Tick: 0, RepairTick: 25},
			{Node: 4, Tick: 40, RepairTick: 200},
		},
		LossWindows: []chaos.LossWindow{
			{Start: 40, End: 55, ReportLoss: 0.5, BudgetLoss: 0.1},
			{Start: 10, End: 40, ReportLoss: 0.3, BudgetLoss: 0.2},
		},
		SensorFaults: []chaos.SensorFault{
			{Server: 14, Start: 0, End: 40, Mode: sensor.ModeBias, Magnitude: 6},
			{Server: 15, Start: 40, Mode: sensor.ModeDrift, Magnitude: 0.05},
		},
	})
	injections := []orderInjection{
		{0, chaos.Plan{
			ServerFailures: []chaos.ServerFailure{{Server: 7, Tick: 0, RepairTick: 12}},
			LossWindows:    []chaos.LossWindow{{Start: 0, End: 5, ReportLoss: 0.2, BudgetLoss: 0.2}},
			SensorFaults:   []chaos.SensorFault{{Server: 3, Start: 0, End: 20, Mode: sensor.ModeNoise, Magnitude: 2}},
		}},
		{30, chaos.Plan{
			ServerFailures: []chaos.ServerFailure{{Server: 12, Tick: 10, RepairTick: 20}},
		}},
		{40, chaos.Plan{
			ServerFailures: []chaos.ServerFailure{{Server: 11, Tick: 0, RepairTick: 15}, {Server: 8, Tick: 500}},
			PMUFailures:    []chaos.PMUFailure{{Node: 6, Tick: 0, RepairTick: 10}},
			LossWindows:    []chaos.LossWindow{{Start: 0, End: 20, ReportLoss: 0.4, BudgetLoss: 0.3}},
			SensorFaults:   []chaos.SensorFault{{Server: 1, Start: 0, End: 30, Mode: sensor.ModeStuck}},
		}},
		{40, chaos.Plan{
			SensorFaults: []chaos.SensorFault{{Server: 1, Start: 0, Mode: sensor.ModeDropout}},
		}},
		{orderTicks - 1, chaos.Plan{
			ServerFailures: []chaos.ServerFailure{{Server: 13, Tick: 0}, {Server: 16, Tick: 1}},
		}},
	}

	var stream bytes.Buffer
	w := telemetry.NewWriter(&stream)
	cfg.Sink = w
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		for _, in := range injections {
			if in.at == m.NextTick() {
				if err := m.InjectPlan(in.plan, in.at); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Step()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return append(encodeResult(m.Result()), stream.Bytes()...)
}

// TestFiringOrderPin holds orderRun to the digest the event-heap
// Machine produced.
func TestFiringOrderPin(t *testing.T) {
	if got := shaHex(orderRun(t)); got != firingOrderPin {
		t.Errorf("firing order digest = %s, want %s", got, firingOrderPin)
	}
}

// The tests below spell out the rules the pin digests, one rule each,
// on server failures, whose events carry the controller tick they
// fired at. Each server fails at most once, so every queued failure
// publishes exactly one event.

// faultTicks is failuresRun's horizon.
const faultTicks = 60

// fired is one server failure as its event reports it.
type fired struct{ server, tick int }

// failuresRun runs faultTicks ticks with the given build-time server
// failures, calling between (when non-nil) at every boundary before the
// Step, and returns the failures in the order they fired.
func failuresRun(t *testing.T, failures []chaos.ServerFailure, between func(m *Machine)) []fired {
	t.Helper()
	cfg := shortConfig(0.6)
	cfg.Warmup, cfg.Ticks = 10, faultTicks
	ApplyPlan(&cfg, chaos.Plan{ServerFailures: failures})
	var buf telemetry.Buffer
	cfg.Sink = &buf
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		if between != nil {
			between(m)
		}
		m.Step()
	}
	var got []fired
	for _, e := range buf.Events {
		if e.Kind == telemetry.KindFailure && e.Cause == "fail" {
			got = append(got, fired{e.Server, e.Tick})
		}
	}
	return got
}

// injectFailure queues a live failure of server s at tick rel relative
// to NextTick.
func injectFailure(t *testing.T, m *Machine, s, rel int) {
	t.Helper()
	plan := chaos.Plan{ServerFailures: []chaos.ServerFailure{{Server: s, Tick: rel}}}
	if err := m.InjectPlan(plan, m.NextTick()); err != nil {
		t.Fatal(err)
	}
}

// checkFired compares the failures a run fired with the ones it should.
func checkFired(t *testing.T, got, want []fired) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("server failures fired as %v, want %v", got, want)
	}
}

// TestFaultsFireInTickOrder: faults fire in tick order, whatever order
// the plan lists them in.
func TestFaultsFireInTickOrder(t *testing.T) {
	got := failuresRun(t, []chaos.ServerFailure{
		{Server: 4, Tick: 50},
		{Server: 1, Tick: 5},
		{Server: 7, Tick: 35},
		{Server: 2, Tick: 20},
		{Server: 5, Tick: 12},
	}, nil)
	checkFired(t, got, []fired{{1, 5}, {5, 12}, {2, 20}, {7, 35}, {4, 50}})
}

// TestSameTickFaultsFireFIFO: faults for one tick fire in the order
// they were queued, so build-time faults precede ones injected later for
// the same tick, and earlier injections precede later ones.
func TestSameTickFaultsFireFIFO(t *testing.T) {
	got := failuresRun(t, []chaos.ServerFailure{
		{Server: 2, Tick: 20},
		{Server: 1, Tick: 20},
		{Server: 6, Tick: 20},
	}, func(m *Machine) {
		switch m.NextTick() {
		case 10:
			injectFailure(t, m, 3, 10)
		case 15:
			injectFailure(t, m, 8, 5)
		}
	})
	checkFired(t, got, []fired{{2, 20}, {1, 20}, {6, 20}, {3, 20}, {8, 20}})
}

// TestFaultsInjectedDuringRun: a fault injected for the boundary it is
// injected at fires after that tick's body, stamped NextTick()+1, and so
// after the faults queued earlier for that tick, which fire before the
// body; one injected for a later tick fires at that tick.
func TestFaultsInjectedDuringRun(t *testing.T) {
	got := failuresRun(t, []chaos.ServerFailure{
		{Server: 2, Tick: 0},
		{Server: 5, Tick: 30},
	}, func(m *Machine) {
		switch m.NextTick() {
		case 0:
			injectFailure(t, m, 11, 0)
		case 30:
			injectFailure(t, m, 8, 0)
			injectFailure(t, m, 9, 5)
		}
	})
	checkFired(t, got, []fired{{2, 0}, {11, 1}, {5, 30}, {8, 31}, {9, 35}})
}

// TestFaultAtLastTickFires: a fault at Ticks-1 fires, whether queued at
// build time or injected on the final boundary.
func TestFaultAtLastTickFires(t *testing.T) {
	got := failuresRun(t, []chaos.ServerFailure{{Server: 4, Tick: faultTicks - 1}}, func(m *Machine) {
		if m.NextTick() == faultTicks-1 {
			injectFailure(t, m, 10, 0)
		}
	})
	checkFired(t, got, []fired{{4, faultTicks - 1}, {10, faultTicks}})
}

// TestFaultAtHorizonNeverFires: a fault at or past Ticks never fires,
// while the run's earlier faults do.
func TestFaultAtHorizonNeverFires(t *testing.T) {
	got := failuresRun(t, []chaos.ServerFailure{
		{Server: 6, Tick: faultTicks},
		{Server: 9, Tick: 200},
		{Server: 4, Tick: 5},
	}, func(m *Machine) {
		switch m.NextTick() {
		case 30:
			injectFailure(t, m, 12, faultTicks-30)
		case faultTicks - 1:
			injectFailure(t, m, 10, 1)
		}
	})
	checkFired(t, got, []fired{{4, 5}})
}

// TestPlanBeforeNextTickRejected: a plan offset before NextTick is an
// error and queues nothing.
func TestPlanBeforeNextTickRejected(t *testing.T) {
	past := chaos.Plan{ServerFailures: []chaos.ServerFailure{{Server: 0, Tick: 0}}}
	got := failuresRun(t, []chaos.ServerFailure{{Server: 2, Tick: 20}}, func(m *Machine) {
		if m.NextTick() == 0 {
			return
		}
		if err := m.InjectPlan(past, m.NextTick()-1); err == nil {
			t.Fatalf("plan offset %d before NextTick %d accepted", m.NextTick()-1, m.NextTick())
		}
	})
	checkFired(t, got, []fired{{2, 20}})
}

// TestFaultOrderingQuick: for any plan of failures, each of a distinct
// server, the failures fire in tick order, stable in plan order within a
// tick, and only those before the horizon fire.
func TestFaultOrderingQuick(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		failures := make([]chaos.ServerFailure, len(raw))
		for i, r := range raw {
			failures[i] = chaos.ServerFailure{Server: i, Tick: int(r) % (faultTicks + 8)}
		}
		var want []fired
		for _, f := range failures {
			if f.Tick < faultTicks {
				want = append(want, fired{f.Server, f.Tick})
			}
		}
		slices.SortStableFunc(want, func(a, b fired) int { return cmp.Compare(a.tick, b.tick) })
		got := failuresRun(t, failures, nil)
		if !slices.Equal(got, want) {
			t.Logf("plan %v fired as %v, want %v", failures, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
