package testbed

import (
	"math"
	"testing"

	"willow/internal/dist"
	"willow/internal/power"
)

func TestHostPowerCurve(t *testing.T) {
	h := NewHost("A")
	if got := h.PowerDraw(); math.Abs(got-159.5) > 1e-9 {
		t.Errorf("idle draw = %v, want 159.5", got)
	}
	h.SetUtilization(1)
	if got := h.PowerDraw(); math.Abs(got-232) > 1e-9 {
		t.Errorf("full draw = %v, want 232", got)
	}
	h.SetUtilization(2) // clamps to full load
	if got := h.PowerDraw(); math.Abs(got-232) > 1e-9 {
		t.Errorf("draw at utilization 2 = %v, want the full 232", got)
	}
	h.SetUtilization(-1) // clamps to idle
	if got := h.PowerDraw(); math.Abs(got-159.5) > 1e-9 {
		t.Errorf("draw at utilization -1 = %v, want the idle 159.5", got)
	}
}

func TestHostHeatsUnderLoad(t *testing.T) {
	h := NewHost("A")
	h.SetUtilization(1)
	for i := 0; i < 200; i++ {
		h.Advance(1)
	}
	hw := HardwareThermal()
	want := hw.SteadyState(232)
	if math.Abs(h.Thermal.T-want) > 0.5 {
		t.Errorf("steady temp %v, want ~%v", h.Thermal.T, want)
	}
	if h.Thermal.T > hw.Limit {
		t.Errorf("full-load host exceeds its thermal limit: %v", h.Thermal.T)
	}
}

func TestAnalyzerNoise(t *testing.T) {
	src := dist.NewSource(1)
	an := NewAnalyzer(2, src)
	var w float64
	const n = 20000
	for i := 0; i < n; i++ {
		w += an.Sample(100) / n
	}
	if math.Abs(w-100) > 0.1 {
		t.Errorf("analyzer mean = %v, want ~100", w)
	}
	noiseless := NewAnalyzer(0, src)
	if got := noiseless.Sample(55); got != 55 {
		t.Errorf("noiseless sample = %v", got)
	}
}

func TestSensorNoise(t *testing.T) {
	src := dist.NewSource(2)
	h := NewHost("A")
	s := NewSensor(0.5, src)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Read(h) / n
	}
	if math.Abs(sum-h.Thermal.T) > 0.05 {
		t.Errorf("sensor mean = %v, want ~%v", sum, h.Thermal.T)
	}
	noiseless := NewSensor(0, src)
	if got := noiseless.Read(h); got != h.Thermal.T {
		t.Errorf("noiseless read = %v", got)
	}
}

// TestMeasureTableI reproduces Table I: measured power is monotonically
// increasing in utilization and matches the reconstruction within the
// analyzer noise.
func TestMeasureTableI(t *testing.T) {
	rows, err := MeasureTableI(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows, want 11", len(rows))
	}
	truth := power.TestbedServer()
	prev := -1.0
	for _, r := range rows {
		if r.Watts <= prev {
			t.Errorf("power not increasing at u=%v", r.Util)
		}
		prev = r.Watts
		if math.Abs(r.Watts-truth.Power(r.Util)) > 1 {
			t.Errorf("u=%v: measured %v, truth %v", r.Util, r.Watts, truth.Power(r.Util))
		}
	}
	if _, err := MeasureTableI(0, 7); err == nil {
		t.Error("zero samples accepted")
	}
}

// TestMeasureAppProfiles reproduces Table II: increments of ~8, 10, 15 W
// for A1, A2, A3.
func TestMeasureAppProfiles(t *testing.T) {
	profiles, err := MeasureAppProfiles(400, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"A1": 8, "A2": 10, "A3": 15}
	if len(profiles) != 3 {
		t.Fatalf("%d profiles, want 3", len(profiles))
	}
	for _, p := range profiles {
		if math.Abs(p.Watts-want[p.Name]) > 0.5 {
			t.Errorf("%s: measured %v W, want ~%v W", p.Name, p.Watts, want[p.Name])
		}
	}
	if _, err := MeasureAppProfiles(0, 9); err == nil {
		t.Error("zero samples accepted")
	}
}

// TestCalibrateThermal reproduces the Fig. 14 procedure: the fit recovers
// the emulated hardware's constants through sensor noise.
func TestCalibrateThermal(t *testing.T) {
	res, err := CalibrateThermal(300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.C1-res.TrueC1)/res.TrueC1 > 0.15 {
		t.Errorf("fitted c1 = %v, true %v", res.C1, res.TrueC1)
	}
	if math.Abs(res.C2-res.TrueC2)/res.TrueC2 > 0.15 {
		t.Errorf("fitted c2 = %v, true %v", res.C2, res.TrueC2)
	}
	if res.Samples != 300 {
		t.Errorf("samples = %d", res.Samples)
	}
	if _, err := CalibrateThermal(2, 11); err == nil {
		t.Error("too-few steps accepted")
	}
}

func TestVmsForWatts(t *testing.T) {
	cases := []struct {
		watts float64
		sum   float64
	}{
		{58, 58}, {29, 29}, {14, 14}, {0.2, 0}, {15, 15},
	}
	for _, c := range cases {
		vms := vmsForWatts(c.watts)
		var sum float64
		for _, v := range vms {
			if v <= 0 || v > 15 {
				t.Errorf("vmsForWatts(%v) produced piece %v", c.watts, v)
			}
			sum += v
		}
		if math.Abs(sum-c.sum) > 1e-9 {
			t.Errorf("vmsForWatts(%v) sums to %v, want %v", c.watts, sum, c.sum)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{Utils: [3]float64{0.5, 0.5, 0.5}}); err == nil {
		t.Error("empty supply accepted")
	}
	if _, err := Run(RunConfig{Utils: [3]float64{1.5, 0.5, 0.5}, Supply: power.PlentyTrace()}); err == nil {
		t.Error("utilization > 1 accepted")
	}
}

// TestDeficitRunShape reproduces Fig. 16's defining features: migrations
// burst at the deep supply plunge (time unit 7), none occur during the
// persisting deficit (units 8–10, decision stability), and the recovery
// triggers nothing (unidirectional control). QoS survives: shed demand is
// negligible.
func TestDeficitRunShape(t *testing.T) {
	r, err := DeficitRun(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Units != 30 {
		t.Fatalf("units = %d, want 30", r.Units)
	}
	if r.MigrationsPerUnit[7] == 0 {
		t.Error("no migrations at the plunge (unit 7)")
	}
	for u := 8; u <= 10; u++ {
		if r.MigrationsPerUnit[u] != 0 {
			t.Errorf("migrations at unit %d during the persisting deficit: %d", u, r.MigrationsPerUnit[u])
		}
	}
	if r.MigrationsPerUnit[11] != 0 {
		t.Errorf("migrations on supply recovery (unit 11): %d", r.MigrationsPerUnit[11])
	}
	// Exactly one host drained and slept, freeing its static draw.
	asleep := 0
	for _, a := range r.AsleepAtEnd {
		if a {
			asleep++
		}
	}
	if asleep != 1 {
		t.Errorf("asleep hosts = %d, want 1", asleep)
	}
	// QoS: shed demand is a negligible fraction of total served energy.
	if r.DroppedWattTicks > 500 {
		t.Errorf("dropped %v watt-ticks, want negligible", r.DroppedWattTicks)
	}
	if r.Stats.PingPongs != 0 {
		t.Errorf("ping-pongs: %d", r.Stats.PingPongs)
	}
}

// TestDeficitTemperatures sanity-checks the Fig. 17/18 series: bounded by
// the thermal limit, warmer than ambient under load.
func TestDeficitTemperatures(t *testing.T) {
	r, err := DeficitRun(1)
	if err != nil {
		t.Fatal(err)
	}
	hw := HardwareThermal()
	for i := 0; i < 3; i++ {
		if len(r.TempSeries[i]) != r.Units {
			t.Fatalf("host %d series length %d", i, len(r.TempSeries[i]))
		}
		for u, temp := range r.TempSeries[i] {
			if temp > hw.Limit+1e-6 {
				t.Errorf("host %d exceeds thermal limit at unit %d: %v", i, u, temp)
			}
		}
		if !r.AsleepAtEnd[i] && r.MeanTemp[i] <= hw.Ambient {
			t.Errorf("awake host %d mean temp %v not above ambient", i, r.MeanTemp[i])
		}
	}
}

// TestPlentyRunTableIII reproduces Table III and the §V-C5 savings:
// host C drains to zero utilization and sleeps, and consolidation saves
// ≈27.5 % of the unconsolidated draw.
func TestPlentyRunTableIII(t *testing.T) {
	r, err := PlentyRun(1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.AsleepAtEnd[2] {
		t.Fatal("host C did not sleep")
	}
	if r.UtilFinal[2] != 0 {
		t.Errorf("host C final utilization %v, want 0", r.UtilFinal[2])
	}
	if r.AsleepAtEnd[0] || r.AsleepAtEnd[1] {
		t.Error("hosts A/B slept; only C should")
	}
	savings := r.Savings()
	if math.Abs(savings-0.275) > 0.03 {
		t.Errorf("consolidation savings = %.3f, want ≈0.275", savings)
	}
	// A and B stay within their power and thermal limits after absorbing
	// C's load (the paper's observation that C need not be woken).
	if r.UtilFinal[0] > 1 || r.UtilFinal[1] > 1 {
		t.Errorf("final utilizations %v exceed capacity", r.UtilFinal)
	}
	if r.Stats.PingPongs != 0 {
		t.Errorf("ping-pongs: %d", r.Stats.PingPongs)
	}
}

// TestRunDeterminism: the same seed reproduces the same run.
func TestRunDeterminism(t *testing.T) {
	a, err := DeficitRun(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeficitRun(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.PowerFinal != b.PowerFinal || len(a.Stats.Migrations) != len(b.Stats.Migrations) {
		t.Error("identical seeds diverged")
	}
}

func BenchmarkDeficitRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DeficitRun(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CalibrateThermal(200, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
