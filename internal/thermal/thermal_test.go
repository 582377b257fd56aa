package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"willow/internal/dist"
)

// paperSim is the simulation-side model of Section V-B2: c1=0.08, c2=0.05,
// Ta=25 °C, limit 70 °C.
var paperSim = Model{C1: 0.08, C2: 0.05, Ambient: 25, Limit: 70}

// paperTestbed is the experimentally fitted model of Section V-C2:
// c1=0.2, c2=0.008, Ta=25 °C.
var paperTestbed = Model{C1: 0.2, C2: 0.008, Ambient: 25, Limit: 70}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		ok   bool
	}{
		{"paper sim", paperSim, true},
		{"paper testbed", paperTestbed, true},
		{"zero c1", Model{C1: 0, C2: 0.05, Ambient: 25, Limit: 70}, false},
		{"negative c2", Model{C1: 0.08, C2: -1, Ambient: 25, Limit: 70}, false},
		{"limit below ambient", Model{C1: 0.08, C2: 0.05, Ambient: 80, Limit: 70}, false},
		// Regression: NaN fails every ordered comparison, so non-finite
		// constants used to slip through the positivity checks.
		{"NaN c1", Model{C1: math.NaN(), C2: 0.05, Ambient: 25, Limit: 70}, false},
		{"NaN c2", Model{C1: 0.08, C2: math.NaN(), Ambient: 25, Limit: 70}, false},
		{"NaN ambient", Model{C1: 0.08, C2: 0.05, Ambient: math.NaN(), Limit: 70}, false},
		{"NaN limit", Model{C1: 0.08, C2: 0.05, Ambient: 25, Limit: math.NaN()}, false},
		{"inf c1", Model{C1: math.Inf(1), C2: 0.05, Ambient: 25, Limit: 70}, false},
		{"inf limit", Model{C1: 0.08, C2: 0.05, Ambient: 25, Limit: math.Inf(1)}, false},
		{"-inf ambient", Model{C1: 0.08, C2: 0.05, Ambient: math.Inf(-1), Limit: 70}, false},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStepZeroPowerCoolsTowardAmbient(t *testing.T) {
	temp := 60.0
	for i := 0; i < 500; i++ {
		next := paperSim.Step(temp, 0, 1)
		if next > temp {
			t.Fatalf("unpowered device heated up: %v -> %v", temp, next)
		}
		temp = next
	}
	if math.Abs(temp-paperSim.Ambient) > 0.01 {
		t.Errorf("after long cooling, T = %v, want ~ambient %v", temp, paperSim.Ambient)
	}
}

func TestStepHeatsTowardSteadyState(t *testing.T) {
	const p = 20.0
	want := paperSim.SteadyState(p)
	temp := paperSim.Ambient
	for i := 0; i < 2000; i++ {
		temp = paperSim.Step(temp, p, 1)
	}
	if math.Abs(temp-want) > 0.01 {
		t.Errorf("steady temp = %v, want %v", temp, want)
	}
}

func TestStepMatchesEulerIntegration(t *testing.T) {
	// The closed form must agree with fine-grained forward-Euler
	// integration of dT/dt = c1 P − c2 (T − Ta).
	m := paperSim
	t0, p, dt := 40.0, 30.0, 5.0
	const substeps = 200000
	h := dt / substeps
	temp := t0
	for i := 0; i < substeps; i++ {
		temp += h * (m.C1*p - m.C2*(temp-m.Ambient))
	}
	got := m.Step(t0, p, dt)
	if math.Abs(got-temp) > 1e-3 {
		t.Errorf("closed form %v vs Euler %v", got, temp)
	}
}

func TestStepIsAdditiveInTime(t *testing.T) {
	// Stepping dt then dt' must equal stepping dt+dt' at constant power.
	m := paperTestbed
	t0, p := 33.0, 120.0
	a := m.Step(m.Step(t0, p, 3), p, 4)
	b := m.Step(t0, p, 7)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("two-step %v != one-step %v", a, b)
	}
}

func TestPowerLimitKeepsTemperatureAtLimit(t *testing.T) {
	// Holding exactly PowerLimit for the window must land exactly on the
	// thermal limit (when starting below it).
	for _, t0 := range []float64{25, 40, 55, 69.9} {
		p := paperSim.PowerLimit(t0, 1)
		end := paperSim.Step(t0, p, 1)
		if math.Abs(end-paperSim.Limit) > 1e-6 {
			t.Errorf("t0=%v: temp after window at P_limit = %v, want %v", t0, end, paperSim.Limit)
		}
	}
}

func TestPowerLimitZeroWhenOverheated(t *testing.T) {
	// A device starting above its limit cannot shed heat fast enough in a
	// short window, so its power budget must be clamped to zero.
	p := paperSim.PowerLimit(90, 0.1)
	if p != 0 {
		t.Errorf("PowerLimit at 90 °C over a short window = %v, want 0", p)
	}
}

func TestPowerLimitInfiniteForZeroWindow(t *testing.T) {
	if p := paperSim.PowerLimit(30, 0); !math.IsInf(p, 1) {
		t.Errorf("PowerLimit over zero window = %v, want +Inf", p)
	}
}

func TestPowerLimitDecreasesWithStartTemp(t *testing.T) {
	prev := math.Inf(1)
	for t0 := 25.0; t0 <= 70; t0 += 5 {
		p := paperSim.PowerLimit(t0, 1)
		if p > prev {
			t.Fatalf("PowerLimit not monotone: P(%v)=%v > P(%v)=%v", t0, p, t0-5, prev)
		}
		prev = p
	}
}

// TestFig4PaperConstants reproduces the anchor points of Fig. 4: with
// c1=0.08 and c2=0.05 the power limit presented by a cold (ambient) server
// at Ta=25 °C is around 450 W, and a server already at 70 °C in a 45 °C
// ambient presents almost zero surplus.
func TestFig4PaperConstants(t *testing.T) {
	// The paper's figure fixes an adjustment window; the 450 W anchor pins
	// it at Δs ≈ 1.29 time units (see fig4 experiment).
	const window = 1.29
	cold := paperSim.PowerLimit(paperSim.Ambient, window)
	if math.Abs(cold-450) > 5 {
		t.Errorf("cold-start power limit = %v W, want ~450 W", cold)
	}
	hot := Model{C1: 0.08, C2: 0.05, Ambient: 45, Limit: 70}
	atLimit := hot.PowerLimit(70, window)
	if atLimit > 20 {
		t.Errorf("power limit at thermal limit in 45 °C ambient = %v W, want near zero", atLimit)
	}
}

func TestSteadyStatePowerLimit(t *testing.T) {
	p := paperSim.SteadyStatePowerLimit()
	want := paperSim.C2 * (paperSim.Limit - paperSim.Ambient) / paperSim.C1
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("SteadyStatePowerLimit = %v, want %v", p, want)
	}
	// Holding that power forever must converge to exactly the limit.
	if ss := paperSim.SteadyState(p); math.Abs(ss-paperSim.Limit) > 1e-9 {
		t.Errorf("steady state at limit power = %v, want %v", ss, paperSim.Limit)
	}
}

func TestStateLifecycle(t *testing.T) {
	s := NewState(paperSim)
	if s.T != paperSim.Ambient {
		t.Errorf("new state at %v °C, want ambient %v", s.T, paperSim.Ambient)
	}
	s.Advance(400, 10)
	if s.T <= paperSim.Ambient {
		t.Error("temperature did not rise under load")
	}
	if got := s.Headroom(); math.Abs(got-(paperSim.Limit-s.T)) > 1e-12 {
		t.Errorf("Headroom = %v, want %v", got, paperSim.Limit-s.T)
	}
	s.T = paperSim.Limit + 1
	if got := s.Headroom(); got >= 0 {
		t.Errorf("Headroom at limit+1 = %v, want negative", got)
	}
}

func TestCalibrateRecoversConstants(t *testing.T) {
	// Generate a noiseless trace from known constants and check the fit
	// recovers them almost exactly.
	for _, m := range []Model{paperSim, paperTestbed} {
		src := dist.NewSource(99)
		var samples []Sample
		temp := m.Ambient
		for i := 0; i < 200; i++ {
			p := src.Uniform(0, 300)
			const dt = 0.5
			next := m.Step(temp, p, dt)
			// The fit uses the discretised ODE, so feed it the true mean
			// derivative over a short step.
			samples = append(samples, Sample{T0: temp, T1: next, P: p, Dt: dt})
			temp = next
		}
		c1, c2, err := Calibrate(samples, m.Ambient)
		if err != nil {
			t.Fatalf("Calibrate: %v", err)
		}
		if math.Abs(c1-m.C1)/m.C1 > 0.05 {
			t.Errorf("fitted c1 = %v, want ~%v", c1, m.C1)
		}
		if math.Abs(c2-m.C2)/m.C2 > 0.05 {
			t.Errorf("fitted c2 = %v, want ~%v", c2, m.C2)
		}
		if rmse := CalibrationError(samples, m.Ambient, c1, c2); rmse > 0.5 {
			t.Errorf("calibration RMSE = %v, want small", rmse)
		}
	}
}

func TestCalibrateRejectsTinyTraces(t *testing.T) {
	if _, _, err := Calibrate([]Sample{{T0: 25, T1: 26, P: 10, Dt: 1}}, 25); err == nil {
		t.Error("Calibrate accepted a single sample")
	}
}

func TestCalibrateRejectsDegenerateTrace(t *testing.T) {
	// All samples at ambient with identical power: c2 is unobservable.
	samples := []Sample{
		{T0: 25, T1: 25.8, P: 10, Dt: 1},
		{T0: 25, T1: 25.8, P: 10, Dt: 1},
		{T0: 25, T1: 25.8, P: 10, Dt: 1},
	}
	if _, _, err := Calibrate(samples, 25); err == nil {
		t.Error("Calibrate accepted a degenerate trace")
	}
}

func TestCalibrateRejectsBadDt(t *testing.T) {
	samples := []Sample{
		{T0: 25, T1: 26, P: 10, Dt: 1},
		{T0: 26, T1: 27, P: 20, Dt: 0},
	}
	if _, _, err := Calibrate(samples, 25); err == nil {
		t.Error("Calibrate accepted a sample with Dt=0")
	}
}

// Property: temperature is always bounded between min(T0, Ta) and
// max(T0, steady state) for any non-negative power and window.
func TestStepBoundsQuick(t *testing.T) {
	f := func(rawT0, rawP, rawDt uint16) bool {
		m := paperSim
		t0 := 20 + float64(rawT0%100)      // 20..119 °C
		p := float64(rawP % 1000)          // 0..999 W
		dt := 0.01 + float64(rawDt%500)/10 // 0.01..50
		got := m.Step(t0, p, dt)
		lo := math.Min(t0, m.Ambient) - 1e-9
		hi := math.Max(t0, m.SteadyState(p)) + 1e-9
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: running at PowerLimit never overshoots the limit, for any
// starting temperature at or below the limit.
func TestPowerLimitNeverOvershootsQuick(t *testing.T) {
	f := func(rawT0, rawDt uint16) bool {
		m := paperSim
		t0 := m.Ambient + float64(rawT0%46) // 25..70 °C
		dt := 0.1 + float64(rawDt%100)/10   // 0.1..10
		p := m.PowerLimit(t0, dt)
		if math.IsInf(p, 1) {
			return true
		}
		return m.Step(t0, p, dt) <= m.Limit+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkStep(b *testing.B) {
	m := paperSim
	temp := 40.0
	for i := 0; i < b.N; i++ {
		temp = m.Step(temp, 100, 1)
		if temp > 71 {
			temp = 40
		}
	}
}

func BenchmarkPowerLimit(b *testing.B) {
	m := paperSim
	for i := 0; i < b.N; i++ {
		m.PowerLimit(40+float64(i%30), 1)
	}
}

func BenchmarkCalibrate(b *testing.B) {
	src := dist.NewSource(1)
	m := paperSim
	var samples []Sample
	temp := m.Ambient
	for i := 0; i < 500; i++ {
		p := src.Uniform(0, 300)
		next := m.Step(temp, p, 0.5)
		samples = append(samples, Sample{T0: temp, T1: next, P: p, Dt: 0.5})
		temp = next
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Calibrate(samples, m.Ambient); err != nil {
			b.Fatal(err)
		}
	}
}
