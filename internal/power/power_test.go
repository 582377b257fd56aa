package power

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestServerModelValidate(t *testing.T) {
	if err := TestbedServer().Validate(); err != nil {
		t.Errorf("TestbedServer invalid: %v", err)
	}
	if err := (ServerModel{Static: -1, Peak: 10}).Validate(); err == nil {
		t.Error("negative static accepted")
	}
	if err := (ServerModel{Static: 10, Peak: 5}).Validate(); err == nil {
		t.Error("peak < static accepted")
	}
}

func TestServerPowerEndpoints(t *testing.T) {
	m := TestbedServer()
	if got := m.Power(0); math.Abs(got-159.5) > 1e-9 {
		t.Errorf("P(0) = %v, want 159.5", got)
	}
	if got := m.Power(1); math.Abs(got-232) > 1e-9 {
		t.Errorf("P(1) = %v, want 232", got)
	}
}

func TestServerPowerClamps(t *testing.T) {
	m := TestbedServer()
	if got := m.Power(-0.5); got != m.Static {
		t.Errorf("P(-0.5) = %v, want static %v", got, m.Static)
	}
	if got := m.Power(2); got != m.Peak {
		t.Errorf("P(2) = %v, want peak %v", got, m.Peak)
	}
}

func TestServerUtilizationInverts(t *testing.T) {
	m := TestbedServer()
	for u := 0.0; u <= 1.0; u += 0.05 {
		got := m.Utilization(m.Power(u))
		if math.Abs(got-u) > 1e-9 {
			t.Errorf("Utilization(Power(%v)) = %v", u, got)
		}
	}
}

func TestServerUtilizationClamps(t *testing.T) {
	m := TestbedServer()
	if got := m.Utilization(0); got != 0 {
		t.Errorf("Utilization(0 W) = %v, want 0", got)
	}
	if got := m.Utilization(1e6); got != 1 {
		t.Errorf("Utilization(1 MW) = %v, want 1", got)
	}
	deg := ServerModel{Static: 100, Peak: 100}
	if got := deg.Utilization(100); got != 0 {
		t.Errorf("degenerate model utilization = %v, want 0", got)
	}
}

// TestTableIReconstruction checks the anchors the reconstruction was
// derived from: ~232 W at 100 % and the §V-C5 consolidation arithmetic —
// servers at 80/40/20 % draw 580 W total, and consolidating to 100/40/off
// saves ≈27.5 %.
func TestTableIReconstruction(t *testing.T) {
	m := TestbedServer()
	before := m.Power(0.8) + m.Power(0.4) + m.Power(0.2)
	if math.Abs(before-580) > 0.5 {
		t.Errorf("pre-consolidation total = %v W, want 580 W", before)
	}
	after := m.Power(1.0) + m.Power(0.4) // third server off
	savings := 1 - after/before
	if math.Abs(savings-0.275) > 0.005 {
		t.Errorf("consolidation savings = %.3f, want ~0.275", savings)
	}
}

func TestSwitchModel(t *testing.T) {
	m := SwitchModel{Static: 5, PerTraffic: 2, MaxTraffic: 100}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Power(0); got != 5 {
		t.Errorf("idle switch power = %v, want 5", got)
	}
	if got := m.Power(10); got != 25 {
		t.Errorf("P(10) = %v, want 25", got)
	}
	// Clamping.
	if got := m.Power(-3); got != 5 {
		t.Errorf("P(-3) = %v, want 5", got)
	}
	if got := m.Power(1e9); got != m.Power(100) {
		t.Errorf("traffic beyond capacity not clamped: %v", got)
	}
}

func TestSwitchModelValidate(t *testing.T) {
	if err := (SwitchModel{Static: -1, PerTraffic: 1, MaxTraffic: 1}).Validate(); err == nil {
		t.Error("negative static accepted")
	}
	if err := (SwitchModel{Static: 1, PerTraffic: 1, MaxTraffic: 0}).Validate(); err == nil {
		t.Error("zero MaxTraffic accepted")
	}
}

func TestConstantSupply(t *testing.T) {
	s := Constant(450)
	for _, tick := range []int{0, 1, 100000} {
		if got := s.At(tick); got != 450 {
			t.Errorf("Constant.At(%d) = %v", tick, got)
		}
	}
}

func TestTraceSupplyWraps(t *testing.T) {
	tr := Trace{1, 2, 3}
	if got := tr.At(0); got != 1 {
		t.Errorf("At(0) = %v", got)
	}
	if got := tr.At(4); got != 2 {
		t.Errorf("At(4) = %v, want wrap to 2", got)
	}
	if got := tr.At(-1); got != 1 {
		t.Errorf("At(-1) = %v, want clamp to first", got)
	}
	if got := Trace(nil).At(5); got != 0 {
		t.Errorf("empty trace At = %v, want 0", got)
	}
}

func TestTraceStats(t *testing.T) {
	tr := Trace{2, 4, 6}
	if got := tr.Mean(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := Trace(nil).Mean(); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
}

func TestSineSupply(t *testing.T) {
	s := Sine{Base: 100, Amplitude: 50, Period: 40}
	if got := s.At(0); math.Abs(got-100) > 1e-9 {
		t.Errorf("At(0) = %v, want 100", got)
	}
	if got := s.At(10); math.Abs(got-150) > 1e-9 {
		t.Errorf("At(quarter period) = %v, want 150", got)
	}
	if got := s.At(30); math.Abs(got-50) > 1e-9 {
		t.Errorf("At(3/4 period) = %v, want 50", got)
	}
	// Never negative even when amplitude exceeds base.
	neg := Sine{Base: 10, Amplitude: 100, Period: 4}
	for tick := 0; tick < 8; tick++ {
		if neg.At(tick) < 0 {
			t.Errorf("Sine produced negative supply at tick %d", tick)
		}
	}
	// Degenerate period falls back to base.
	if got := (Sine{Base: 77, Period: 0}).At(5); got != 77 {
		t.Errorf("zero-period sine = %v, want 77", got)
	}
}

func TestScaledSupply(t *testing.T) {
	s := Scaled{S: Constant(100), Factor: 0.5}
	if got := s.At(3); got != 50 {
		t.Errorf("Scaled.At = %v, want 50", got)
	}
}

// TestDeficitTraceShape pins the defining features of Fig. 15: plunges at
// time units 7, 12 and 25; the first persisting through unit 10; mean near
// the 60 %-utilization demand of three testbed servers (~610 W).
func TestDeficitTraceShape(t *testing.T) {
	tr := DeficitTrace()
	if len(tr) != 30 {
		t.Fatalf("trace length %d, want 30", len(tr))
	}
	mean := tr.Mean()
	if mean < 570 || mean > 640 {
		t.Errorf("trace mean %v W, want near 610 W", mean)
	}
	demand60 := 3 * TestbedServer().Power(0.6)
	for _, plunge := range []int{7, 12, 25} {
		if tr[plunge] >= demand60 {
			t.Errorf("tick %d: supply %v not below 60%% demand %v", plunge, tr[plunge], demand60)
		}
		if tr[plunge] >= tr[plunge-1] {
			t.Errorf("tick %d is not a plunge: %v -> %v", plunge, tr[plunge-1], tr[plunge])
		}
	}
	// The first plunge persists through unit 10.
	for tick := 7; tick <= 10; tick++ {
		if tr[tick] > 500 {
			t.Errorf("plunge did not persist at tick %d: %v", tick, tr[tick])
		}
	}
}

// TestPlentyTraceShape pins Fig. 19: mean near 750 W and enough supply at
// every tick for all three servers at full load minus slack.
func TestPlentyTraceShape(t *testing.T) {
	tr := PlentyTrace()
	mean := tr.Mean()
	if math.Abs(mean-757) > 15 {
		t.Errorf("plenty trace mean %v, want ~750 W", mean)
	}
	full := 3 * TestbedServer().Power(1.0) // 696 W
	if low := slices.Min(tr); low < full {
		t.Errorf("plenty trace min %v dips below full-load demand %v", low, full)
	}
}

func TestUPSPassthroughWhenBalanced(t *testing.T) {
	u := NewUPS(1000, 100, 1)
	if got := u.Deliver(500, 500); got != 500 {
		t.Errorf("balanced Deliver = %v, want 500", got)
	}
	if u.SoC() != 1 {
		t.Errorf("SoC changed on balanced delivery: %v", u.SoC())
	}
}

func TestUPSDischargesOnDeficit(t *testing.T) {
	u := NewUPS(1000, 100, 1)
	got := u.Deliver(400, 480)
	if got != 480 {
		t.Errorf("Deliver = %v, want full demand 480", got)
	}
	if math.Abs(u.Charge-920) > 1e-9 {
		t.Errorf("charge = %v, want 920", u.Charge)
	}
}

func TestUPSDischargeRateLimited(t *testing.T) {
	u := NewUPS(1000, 50, 1)
	got := u.Deliver(400, 600) // needs 200, rate caps at 50
	if got != 450 {
		t.Errorf("Deliver = %v, want 450 (supply + max discharge)", got)
	}
}

func TestUPSEmptyBattery(t *testing.T) {
	u := NewUPS(1000, 100, 1)
	u.Charge = 20
	got := u.Deliver(400, 600)
	if got != 420 {
		t.Errorf("Deliver = %v, want 420 (supply + remaining charge)", got)
	}
	if u.Charge != 0 {
		t.Errorf("charge = %v, want 0", u.Charge)
	}
	if u.SoC() != 0 {
		t.Errorf("SoC = %v, want 0", u.SoC())
	}
}

func TestUPSChargesOnSurplus(t *testing.T) {
	u := NewUPS(1000, 100, 0.9)
	u.Charge = 500
	got := u.Deliver(700, 600) // 100 spare, 90 stored at 0.9 efficiency
	if got != 600 {
		t.Errorf("Deliver = %v, want demand 600", got)
	}
	if math.Abs(u.Charge-590) > 1e-9 {
		t.Errorf("charge = %v, want 590", u.Charge)
	}
}

func TestUPSChargeCaps(t *testing.T) {
	u := NewUPS(1000, 100, 1)
	u.Charge = 980
	u.Deliver(800, 600) // spare 200, rate-capped to 100, capacity-capped to 1000
	if u.Charge != 1000 {
		t.Errorf("charge = %v, want capped at 1000", u.Charge)
	}
}

func TestUPSNegativeInputsClamped(t *testing.T) {
	u := NewUPS(100, 10, 1)
	if got := u.Deliver(-5, -10); got != 0 {
		t.Errorf("Deliver with negative inputs = %v, want 0", got)
	}
}

func TestNewUPSBadEfficiency(t *testing.T) {
	u := NewUPS(100, 10, 0)
	if u.Efficiency != 1 {
		t.Errorf("efficiency fallback = %v, want 1", u.Efficiency)
	}
	u = NewUPS(100, 10, 2)
	if u.Efficiency != 1 {
		t.Errorf("efficiency fallback = %v, want 1", u.Efficiency)
	}
}

func TestUPSZeroCapacitySoC(t *testing.T) {
	u := &UPS{}
	if got := u.SoC(); got != 0 {
		t.Errorf("zero-capacity SoC = %v, want 0", got)
	}
}

// Property: a UPS never delivers more than demand nor less than zero, and
// its charge stays within [0, Capacity].
func TestUPSInvariantsQuick(t *testing.T) {
	f := func(rawSupply, rawDemand, rawCharge uint16) bool {
		u := NewUPS(1000, 100, 0.95)
		u.Charge = float64(rawCharge % 1001)
		supply := float64(rawSupply % 2000)
		demand := float64(rawDemand % 2000)
		got := u.Deliver(supply, demand)
		if got < 0 || got > demand+1e-9 {
			return false
		}
		return u.Charge >= 0 && u.Charge <= u.Capacity+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the server power curve is monotone non-decreasing in
// utilization.
func TestServerPowerMonotoneQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		m := TestbedServer()
		ua := float64(a) / 65535
		ub := float64(b) / 65535
		if ua > ub {
			ua, ub = ub, ua
		}
		return m.Power(ua) <= m.Power(ub)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUPSDeliver(b *testing.B) {
	u := NewUPS(10000, 500, 0.95)
	for i := 0; i < b.N; i++ {
		u.Deliver(float64(400+i%300), float64(500+i%200))
	}
}

func TestDynamicRange(t *testing.T) {
	if got := TestbedServer().DynamicRange(); math.Abs(got-72.5) > 1e-9 {
		t.Errorf("DynamicRange = %v, want 72.5", got)
	}
}

func TestForesightShiftsTimeline(t *testing.T) {
	tr := Trace{10, 20, 30, 40}
	f := Foresight{S: tr, Epochs: 1}
	if got := f.At(0); got != 20 {
		t.Errorf("Foresight.At(0) = %v, want 20 (one epoch ahead)", got)
	}
	if got := f.At(2); got != 40 {
		t.Errorf("Foresight.At(2) = %v, want 40", got)
	}
}
