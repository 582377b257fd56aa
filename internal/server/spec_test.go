package server

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"willow/internal/cluster"
	"willow/internal/power"
)

// fullSpec sets every Spec field to a non-default value and still
// builds and runs, so round-trip tests cover the whole wire form.
func fullSpec() Spec {
	return Spec{
		Util: 0.6, Fanout: []int{2, 3}, Ticks: 200, Warmup: 50, Seed: 42,
		Supply: "sine", SupplyWatts: 2500, SupplyBase: 2200, SupplyAmplitude: 400, SupplyPeriod: 30,
		SupplyTrace: []float64{2400, 1900}, SupplyScale: 1.1,
		Hotzone: true, Chaos: "light,sensor-light", ChaosSeed: 9, SensorNaive: true,
		LeaseTicks: 8, Sensing: true, Energy: true, TickSeconds: 2, Policy: "integral",
		StaticWatts: 120, PeakWatts: 420, CircuitLimit: 500,
		ThermalC1: 0.006, ThermalC2: 0.05, Ambient: 24, ThermalLimit: 72,
		HotAmbient: 38, HotServers: []int{4, 5},
		AppsPerServer: 3, PriorityClasses: 2, IPCFlows: 4, IPCRate: 6,
		Eta1: 3, Eta2: 6, Alpha: 0.4, PMin: 8, MigCostWatts: 6, ConsolidateBelow: 0.25,
	}
}

// TestSpecJSON pins the wire form: the default spec encodes exactly as
// every journaled spec always has, and a spec with every field set
// survives a JSON round trip unchanged.
func TestSpecJSON(t *testing.T) {
	got, err := json.Marshal(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"util":0.5,"fanout":[2,3,3],"ticks":400,"warmup":100,"seed":2011,"supply":"constant","hotzone":true}`
	if string(got) != want {
		t.Fatalf("DefaultSpec encodes as\n%s\nwant\n%s", got, want)
	}

	full := fullSpec()
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullSpec leaves %s unset", v.Type().Field(i).Name)
		}
	}
	wire, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Fatalf("round trip changed the spec:\n%+v\nwant\n%+v", back, full)
	}
}

// TestSpecDecodeStrict pins strict decoding: an unknown field is an
// error, and decoding replaces the whole spec rather than merging.
func TestSpecDecodeStrict(t *testing.T) {
	var s Spec
	err := json.Unmarshal([]byte(`{"util":0.5,"fanout":[2],"ticks":10,"hotzon":true}`), &s)
	if err == nil || !strings.Contains(err.Error(), `"hotzon"`) {
		t.Fatalf("unknown field: err = %v, want one naming \"hotzon\"", err)
	}
	s = DefaultSpec()
	if err := json.Unmarshal([]byte(`{"util":0.7,"fanout":[2],"ticks":10,"hot_servers":[]}`), &s); err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Util: 0.7, Fanout: []int{2}, Ticks: 10}); !reflect.DeepEqual(s, want) {
		t.Fatalf("decoded %+v, want %+v", s, want)
	}
}

// TestDefaultSpecMatchesPaperConfig: an unset optional field keeps the
// paper's value.
func TestDefaultSpecMatchesPaperConfig(t *testing.T) {
	cfg, err := DefaultSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	paper := cluster.PaperConfig(0.5)
	if cfg.ServerPower != paper.ServerPower || cfg.Thermal != paper.Thermal ||
		cfg.HotAmbient != paper.HotAmbient || !reflect.DeepEqual(cfg.HotServers, paper.HotServers) ||
		cfg.AppsPerServer != paper.AppsPerServer || cfg.Core != paper.Core ||
		cfg.Supply != paper.Supply {
		t.Fatalf("default spec builds %+v, want the paper config", cfg)
	}
}

// TestSpecBuildOverrides: every optional field reaches the config.
func TestSpecBuildOverrides(t *testing.T) {
	s := fullSpec()
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ServerPower != (power.ServerModel{Static: 120, Peak: 420}) || cfg.CircuitLimit != 500 {
		t.Errorf("power: %+v, circuit %v", cfg.ServerPower, cfg.CircuitLimit)
	}
	if th := cfg.Thermal; th.C1 != 0.006 || th.C2 != 0.05 || th.Ambient != 24 || th.Limit != 72 || cfg.HotAmbient != 38 {
		t.Errorf("thermal: %+v, hot ambient %v", th, cfg.HotAmbient)
	}
	if !reflect.DeepEqual(cfg.HotServers, []int{4, 5}) {
		t.Errorf("hot servers %v", cfg.HotServers)
	}
	if cfg.AppsPerServer != 3 || cfg.PriorityClasses != 2 || cfg.IPCFlows != 4 || cfg.IPCRate != 6 {
		t.Errorf("workload: apps %d, classes %d, flows %d at %v", cfg.AppsPerServer, cfg.PriorityClasses, cfg.IPCFlows, cfg.IPCRate)
	}
	if c := cfg.Core; c.Eta1 != 3 || c.Eta2 != 6 || c.Alpha != 0.4 || c.PMin != 8 || c.MigCostWatts != 6 || c.ConsolidateBelow != 0.25 {
		t.Errorf("controller: %+v", c)
	}
	if got, want := cfg.Supply.At(0), 1.1*2200; math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled sine supply at 0 = %v, want %v", got, want)
	}
	s.Hotzone = false
	if cfg, _ := s.Build(); cfg.HotServers != nil {
		t.Errorf("hotzone off still heats %v", cfg.HotServers)
	}
}

// TestSpecBuildChaos: -chaos arms leases only for machine faults and the
// estimator only for sensor faults, -sensor-naive keeps the estimator
// off under any sensor faults -chaos injects, and -sensing arms it at
// boot whatever the schedule.
func TestSpecBuildChaos(t *testing.T) {
	cases := []struct {
		name          string
		mut           func(*Spec)
		window, lease int
	}{
		{"sensor faults", func(s *Spec) { s.Chaos = "sensor-heavy" }, 5, 0},
		{"sensor faults, naive", func(s *Spec) { s.Chaos, s.SensorNaive = "sensor-heavy", true }, 0, 0},
		{"machine faults", func(s *Spec) { s.Chaos = "light" }, 0, 8},
		{"both, naive", func(s *Spec) { s.Chaos, s.SensorNaive = "light,sensor-light", true }, 0, 8},
		{"sensing at boot, naive", func(s *Spec) { s.Chaos, s.SensorNaive, s.Sensing = "sensor-heavy", true, true }, 5, 0},
	}
	for _, c := range cases {
		s := testSpec()
		c.mut(&s)
		cfg, err := s.Build()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if strings.Contains(s.Chaos, "sensor-") && len(cfg.Faults.SensorFaults) == 0 {
			t.Errorf("%s: %q injects no sensor faults", c.name, s.Chaos)
		}
		if cfg.Core.SensorWindow != c.window || cfg.Core.BudgetLeaseTicks != c.lease {
			t.Errorf("%s: estimator window %d and lease %d, want %d and %d",
				c.name, cfg.Core.SensorWindow, cfg.Core.BudgetLeaseTicks, c.window, c.lease)
		}
	}
}

// TestSpecBuildRejectsBadModels: a power, thermal or supply model the
// cluster cannot run is Build's error, naming the field at fault.
func TestSpecBuildRejectsBadModels(t *testing.T) {
	cases := []struct {
		name, wantErr string
		mut           func(*Spec)
	}{
		{"peak below static", "peak", func(s *Spec) { s.PeakWatts = 10 }},
		{"negative c1", "c1", func(s *Spec) { s.ThermalC1 = -1 }},
		{"ambient above limit", "ambient", func(s *Spec) { s.Ambient = 80 }},
		{"unknown supply kind", "supply", func(s *Spec) { s.Supply = "???" }},
		{"trace without samples", "supply_trace", func(s *Spec) { s.Supply = "trace" }},
		{"non-finite chaos value", "finite", func(s *Spec) { s.Chaos = "server-mtbf=NaN" }},
	}
	for _, c := range cases {
		s := testSpec()
		c.mut(&s)
		if _, err := s.Build(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Build err = %v, want one naming %q", c.name, err, c.wantErr)
		}
	}
}

// TestSpecSupplyProfiles pins each supply kind's level at tick 0 on the
// 6-server test fleet (rated 2700 W).
func TestSpecSupplyProfiles(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		at0  float64
	}{
		{"constant rated", func(s *Spec) { s.Supply = "constant" }, 2700},
		{"constant watts", func(s *Spec) { s.Supply, s.SupplyWatts = "constant", 500 }, 500},
		{"scaled constant", func(s *Spec) { s.Supply, s.SupplyWatts, s.SupplyScale = "constant", 500, 2 }, 1000},
		{"sine preset", func(s *Spec) { s.Supply = "sine" }, 2700 * 0.8},
		{"sine base", func(s *Spec) { s.Supply, s.SupplyBase, s.SupplyPeriod = "sine", 100, 8 }, 100},
		{"deficit-steps", func(s *Spec) { s.Supply = "deficit-steps" }, 2700},
		{"deficit", func(s *Spec) { s.Supply = "deficit" }, power.DeficitTrace()[0]},
		{"plenty", func(s *Spec) { s.Supply = "plenty" }, power.PlentyTrace()[0]},
		{"trace", func(s *Spec) { s.Supply, s.SupplyTrace = "trace", []float64{7, 8} }, 7},
	}
	for _, c := range cases {
		s := testSpec()
		c.mut(&s)
		cfg, err := s.Build()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := cfg.Supply.At(0); math.Abs(got-c.at0) > 1e-9 {
			t.Errorf("%s: At(0) = %v, want %v", c.name, got, c.at0)
		}
	}
}

// TestRegisterFlags binds a spec from flags: each scenario flag lands
// in its field, and -supply file:PATH inlines the CSV as a trace.
func TestRegisterFlags(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "supply.csv")
	if err := os.WriteFile(csv, []byte("time,watts\n0,900\n1,700\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := DefaultSpec()
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	s.RegisterFlags(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 15 {
		t.Errorf("RegisterFlags defines %d flags, want the 15 scenario flags", n)
	}
	err := fs.Parse([]string{
		"-util", "0.7", "-fanout", "4, 4", "-ticks", "90", "-warmup", "10", "-seed", "5",
		"-supply", "file:" + csv, "-hotzone=false", "-chaos", "light", "-chaos-seed", "3",
		"-sensor-naive", "-lease", "6", "-sensing", "-energy",
		"-tick-seconds", "0.5", "-policy", "mpc",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Util: 0.7, Fanout: []int{4, 4}, Ticks: 90, Warmup: 10, Seed: 5,
		Supply: "trace", SupplyTrace: []float64{900, 700},
		Chaos: "light", ChaosSeed: 3, SensorNaive: true,
		LeaseTicks: 6, Sensing: true, Energy: true, TickSeconds: 0.5, Policy: "mpc",
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("bound %+v, want %+v", s, want)
	}
	if got := fs.Lookup("supply").Value.String(); got != "file:"+csv {
		t.Errorf("-supply reads back %q, want the file it was set with", got)
	}
	for _, bad := range [][]string{{"-fanout", "2,x"}, {"-supply", "file:" + csv + ".missing"}} {
		fs := flag.NewFlagSet("spec", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s := DefaultSpec()
		s.RegisterFlags(fs)
		if err := fs.Parse(bad); err == nil {
			t.Errorf("%v parsed", bad)
		}
	}
}

// FuzzSpecDecode throws arbitrary JSON at the spec decoder: decoding and
// Build must each return an error or succeed, never panic, and a decoded
// spec must re-encode to itself.
func FuzzSpecDecode(f *testing.F) {
	for _, s := range []Spec{DefaultSpec(), testSpec(), fullSpec()} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"util":0.5,"fanout":[2,3,3],"ticks":400,"hotzon":true}`))
	f.Add([]byte(`{"fanout":[0],"ticks":-1,"supply":"trace"}`))
	f.Add([]byte(`{"fanout":[],"supply_trace":[],"hot_servers":[99]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		wire, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(wire, &back); err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("re-decoding %s: %+v, %v", wire, back, err)
		}
		// A chaos plan can hold an event per server-tick: keep fleets to
		// 10k servers and runs to a million server-ticks.
		n := 1
		for _, f := range s.Fanout {
			if n *= max(f, 1); f > 10_000 || n > 10_000 {
				return
			}
		}
		if s.Ticks > 1_000_000/n {
			return
		}
		_, _ = s.Build()
	})
}
