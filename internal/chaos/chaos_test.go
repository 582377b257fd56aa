package chaos

import (
	"math"
	"reflect"
	"testing"
)

func testSchedule() Schedule {
	return Schedule{
		Ticks:   800,
		Servers: 18,
		PMUs:    []int{1, 2, 3, 4, 5, 6, 7, 8},
		Racks: [][]int{
			{0, 1, 2}, {3, 4, 5}, {6, 7, 8},
			{9, 10, 11}, {12, 13, 14}, {15, 16, 17},
		},
		ServerMTBF: 150, ServerMTTR: 25,
		PMUMTBF: 300, PMUMTTR: 40,
		BurstEvery: 400, BurstMTTR: 30,
		LossEvery: 300, LossTicks: 50,
		ReportLoss: 0.3, BudgetLoss: 0.3,
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := testSchedule()
	a, err := s.Expand(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed expanded to different plans")
	}
	if reflect.DeepEqual(a, Plan{}) {
		t.Fatal("heavy schedule expanded to an empty plan")
	}
	c, err := s.Expand(8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds expanded to identical plans")
	}
}

func checkPlanInRange(t *testing.T, s Schedule, p Plan) {
	t.Helper()
	pmuOK := map[int]bool{}
	for _, id := range s.PMUs {
		pmuOK[id] = true
	}
	lastTick := -1
	for _, f := range p.ServerFailures {
		if f.Server < 0 || f.Server >= s.Servers {
			t.Fatalf("server %d outside [0, %d)", f.Server, s.Servers)
		}
		if f.Tick < 0 || f.Tick >= s.Ticks {
			t.Fatalf("fail tick %d outside [0, %d)", f.Tick, s.Ticks)
		}
		if f.RepairTick <= f.Tick || f.RepairTick > s.Ticks {
			t.Fatalf("repair tick %d outside (%d, %d]", f.RepairTick, f.Tick, s.Ticks)
		}
		if f.Tick < lastTick {
			t.Fatalf("server failures not sorted: %d after %d", f.Tick, lastTick)
		}
		lastTick = f.Tick
	}
	for _, f := range p.PMUFailures {
		if !pmuOK[f.Node] {
			t.Fatalf("PMU failure for unlisted node %d", f.Node)
		}
		if f.Tick < 0 || f.Tick >= s.Ticks {
			t.Fatalf("PMU fail tick %d outside [0, %d)", f.Tick, s.Ticks)
		}
		if f.RepairTick <= f.Tick || f.RepairTick > s.Ticks {
			t.Fatalf("PMU repair tick %d outside (%d, %d]", f.RepairTick, f.Tick, s.Ticks)
		}
	}
	for _, w := range p.LossWindows {
		if w.Start < 0 || w.Start >= s.Ticks || w.End <= w.Start || w.End > s.Ticks {
			t.Fatalf("loss window [%d, %d) outside the horizon %d", w.Start, w.End, s.Ticks)
		}
		if w.ReportLoss < 0 || w.ReportLoss >= 1 || w.BudgetLoss < 0 || w.BudgetLoss >= 1 {
			t.Fatalf("loss window probabilities out of range: %+v", w)
		}
	}
}

func TestExpandInRange(t *testing.T) {
	s := testSchedule()
	for seed := uint64(0); seed < 25; seed++ {
		p, err := s.Expand(seed)
		if err != nil {
			t.Fatal(err)
		}
		checkPlanInRange(t, s, p)
	}
}

func TestExpandDisabledProcesses(t *testing.T) {
	s := testSchedule()
	s.ServerMTBF, s.PMUMTBF, s.BurstEvery, s.LossEvery = 0, 0, 0, 0
	p, err := s.Expand(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, Plan{}) {
		t.Fatalf("all processes disabled, got %+v", p)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Schedule{
		{Ticks: 0},
		{Ticks: 100, Servers: -1},
		{Ticks: 100, ServerMTBF: -5},
		{Ticks: 100, ReportLoss: 1},
		{Ticks: 100, BudgetLoss: -0.1},
		{Ticks: 100, Servers: 2, Racks: [][]int{{0, 2}}},
		{Ticks: 100, PMUs: []int{-3}},
		{Ticks: 100, ServerMTBF: math.NaN()},
		{Ticks: 100, LossEvery: math.Inf(1)},
		{Ticks: 100, SensorMTTR: math.Inf(1)},
		{Ticks: 100, SensorBias: math.Inf(-1)},
		{Ticks: 100, ReportLoss: math.NaN()},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: schedule %+v validated", i, s)
		}
	}
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("medium")
	if err != nil {
		t.Fatal(err)
	}
	if s.ServerMTBF != 300 || s.ReportLoss != 0.2 {
		t.Fatalf("medium preset wrong: %+v", s)
	}

	s, err = ParseSpec("light,pmu-mtbf=123,budget-loss=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.ServerMTBF != 600 || s.PMUMTBF != 123 || s.BudgetLoss != 0.5 {
		t.Fatalf("override parse wrong: %+v", s)
	}

	if _, err := ParseSpec("nosuchpreset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := ParseSpec("server-mtbf=abc"); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := ParseSpec("warp-drive=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec("server-mtbf=100,light"); err == nil {
		t.Fatal("preset in non-leading position accepted")
	}
	if _, err := ParseSpec("server-mtbf=-4"); err == nil {
		t.Fatal("negative value accepted")
	}
}

// TestParseSpecPresetsAndOverrides pins each sensor-* preset's values,
// overrides with spaces around them, and the composition of one machine
// preset with one sensor-* preset, in either order, to the union of
// their fields.
func TestParseSpecPresetsAndOverrides(t *testing.T) {
	sensorMedium := Schedule{
		SensorMTBF: 220, SensorMTTR: 80,
		SensorNoise: 2, SensorBias: 5, SensorDrift: 0.3,
		SensorStuck: 1,
	}
	mediumUnion := sensorMedium
	mediumUnion.ServerMTBF, mediumUnion.ServerMTTR = 300, 30
	mediumUnion.PMUMTBF, mediumUnion.PMUMTTR = 900, 50
	mediumUnion.BurstEvery, mediumUnion.BurstMTTR = 1500, 40
	mediumUnion.LossEvery, mediumUnion.LossTicks = 800, 60
	mediumUnion.ReportLoss, mediumUnion.BudgetLoss = 0.2, 0.2
	overridden := sensorMedium
	overridden.SensorNoise, overridden.SensorMTTR = 3, 99
	for _, tc := range []struct {
		spec string
		want Schedule
	}{
		{"sensor-light", Schedule{
			SensorMTBF: 400, SensorMTTR: 50,
			SensorNoise: 1.5, SensorBias: 4,
		}},
		{"sensor-medium", sensorMedium},
		{"sensor-heavy", Schedule{
			SensorMTBF: 120, SensorMTTR: 120,
			SensorNoise: 2.5, SensorBias: 8, SensorDrift: 0.5,
			SensorStuck: 1, SensorDropout: 1,
		}},
		{"sensor-medium,sensor-noise=3, sensor-mttr = 99 ", overridden},
		{"sensor-light,sensor-dropout=1", Schedule{
			SensorMTBF: 400, SensorMTTR: 50,
			SensorNoise: 1.5, SensorBias: 4, SensorDropout: 1,
		}},
		{"medium,sensor-medium", mediumUnion},
		{" sensor-medium , medium", mediumUnion},
	} {
		got, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"bogus",                        // unknown preset
		"sensor-noise=1,sensor-light",  // preset after an override
		"server-mtbf=100,light",        // preset after an override
		"sensor-noise=x",               // unparsable value
		"sensor-noise=-1",              // negative
		"sensor-noise=NaN",             // non-finite
		"sensor-noise=+Inf",            // non-finite
		"server-mtbf=NaN",              // non-finite
		"server-mtbf=Inf",              // non-finite
		"loss-ticks=-Inf",              // non-finite
		"sensor-mtbf=1e999",            // overflows to +Inf
		"sensor-light,sensor-noise=-2", // negative override
		"frobnicate=1",                 // unknown key
		"noise=1",                      // a sensor key without its prefix
		"light,heavy",                  // two machine presets
		"sensor-light,sensor-heavy",    // two sensor-* presets
		"light,sensor-light,medium",    // a third preset
	} {
		if s, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted as %+v, want error", bad, s)
		}
	}
}

// FuzzChaosSchedule asserts the expansion contract over arbitrary
// specs and seeds: parseable schedules always expand without error,
// every emitted event stays within the topology and horizon, and the
// same seed yields an identical plan.
func FuzzChaosSchedule(f *testing.F) {
	f.Add("medium", uint64(1), 400, 18)
	f.Add("heavy,loss-ticks=5", uint64(99), 900, 9)
	f.Add("server-mtbf=20,server-mttr=3", uint64(7), 150, 4)
	f.Add("sensor-heavy", uint64(3), 400, 18)
	f.Add("sensor-light,sensor-noise=2.5", uint64(3), 400, 18)
	f.Add("sensor-mtbf=120,sensor-mttr=80,sensor-bias=6,sensor-stuck=1,sensor-dropout=2", uint64(5), 300, 12)
	f.Add(" , ,sensor-noise=0", uint64(1), 100, 2)
	f.Add("sensor-noise==1", uint64(1), 100, 2)
	f.Add("=,=", uint64(1), 100, 2)
	f.Add("server-mtbf=1e300,server-mttr=5", uint64(7), 400, 18)
	f.Fuzz(func(t *testing.T, spec string, seed uint64, ticks, servers int) {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Skip()
		}
		if ticks <= 0 || ticks > 5000 || servers <= 0 || servers > 64 {
			t.Skip()
		}
		s.Ticks = ticks
		s.Servers = servers
		s.PMUs = []int{1, 2}
		half := servers / 2
		if half > 0 {
			racks := [][]int{{}, {}}
			for i := 0; i < servers; i++ {
				racks[i/max(half, 1)%2] = append(racks[i/max(half, 1)%2], i)
			}
			s.Racks = racks
		}
		a, err := s.Expand(seed)
		if err != nil {
			t.Fatalf("valid schedule failed to expand: %v", err)
		}
		checkPlanInRange(t, s, a)
		b, err := s.Expand(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed expanded to different plans")
		}
	})
}
