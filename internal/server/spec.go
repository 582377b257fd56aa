// Package server is Willow's live control plane: a long-running daemon
// that drives the cluster tick loop under wall-clock pacing (or at full
// speed in fast-forward), exposes state and mutation endpoints over
// HTTP/JSON, streams telemetry to any number of subscribers through a
// bounded fan-out hub, and can serialize itself for restart continuity.
//
// The determinism contract of the offline simulator carries over
// whole: a daemon is a cluster.Machine plus a mutation journal, every
// mutation lands at a tick boundary, and a snapshot is (Spec, tick,
// journal) — restoring replays the journal against a fresh machine, so
// the restored run is bit-identical to one that never stopped.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"willow/internal/cluster"
	"willow/internal/policy"
	"willow/internal/power"
	"willow/internal/thermal"
	"willow/internal/trace"
)

// Spec is the one serialized description of a run: willow-sim and
// willowd bind it from the same flags (RegisterFlags), willow-sim reads
// and writes it as -config JSON, and snapshots, the WAL and replication
// journal it. Build is a pure function of the Spec, which is what makes
// snapshot/restore exact: the same Spec always reconstructs the same
// machine, random streams and all.
//
// Every field past Policy is optional: its zero value keeps the
// cluster.PaperConfig / core.Defaults value, and omitempty keeps it off
// the wire, so a spec that sets none of them encodes as it always has.
type Spec struct {
	// Util is the target mean utilization in (0, 1].
	Util float64 `json:"util"`
	// Fanout is the PMU hierarchy shape, root downward.
	Fanout []int `json:"fanout"`
	// Ticks and Warmup bound the run as in cluster.Config; Ticks must
	// be positive.
	Ticks  int `json:"ticks"`
	Warmup int `json:"warmup"`
	// Seed makes the run reproducible.
	Seed uint64 `json:"seed"`
	// Supply selects the root supply profile: "constant", "sine" and
	// "deficit-steps" scale with the fleet's rated power; "deficit" and
	// "plenty" are the testbed traces of Figs. 15 and 19; "trace" replays
	// SupplyTrace.
	Supply string `json:"supply"`
	// SupplyWatts is the constant level; SupplyBase, SupplyAmplitude and
	// SupplyPeriod shape the sine. Zero keeps the rated-power preset.
	SupplyWatts     float64 `json:"supply_watts,omitempty"`
	SupplyBase      float64 `json:"supply_base,omitempty"`
	SupplyAmplitude float64 `json:"supply_amplitude,omitempty"`
	SupplyPeriod    int     `json:"supply_period,omitempty"`
	// SupplyTrace holds per-epoch watts for Supply "trace" (-supply
	// file:PATH inlines its CSV here, so Build never reads a file).
	SupplyTrace []float64 `json:"supply_trace,omitempty"`
	// SupplyScale multiplies any profile when neither 0 nor 1.
	SupplyScale float64 `json:"supply_scale,omitempty"`
	// Hotzone places HotServers — by default the last four servers of
	// an 18-server topology (the paper's two-zone setup) — in the hot
	// ambient. False means no hot servers at all.
	Hotzone bool `json:"hotzone,omitempty"`
	// Chaos/ChaosSeed fold a seeded fault schedule into the run at
	// build time (chaos.ParseSpec syntax). SensorChaos does the same
	// for sensor faults; SensorNaive disarms the robust estimator.
	Chaos       string `json:"chaos,omitempty"`
	ChaosSeed   uint64 `json:"chaos_seed,omitempty"`
	SensorChaos string `json:"sensor_chaos,omitempty"`
	SensorNaive bool   `json:"sensor_naive,omitempty"`
	// LeaseTicks arms budget leases (core.Config.BudgetLeaseTicks) so
	// live-injected PMU failures degrade instead of riding stale
	// budgets forever. Zero leaves leases off — byte-identical to the
	// offline default.
	LeaseTicks int `json:"lease_ticks,omitempty"`
	// Sensing arms the robust temperature estimator at boot (the
	// chaos-smoke defaults) so live-injected sensor faults meet a
	// prepared controller. Zero-value controllers cannot grow an
	// estimator mid-run.
	Sensing bool `json:"sensing,omitempty"`
	// Energy turns on KindEnergy telemetry events (core.Config
	// EnergyEvents). Accounting itself is always on; this only adds the
	// per-supply-window event stream, so the default stays byte-identical
	// to pre-energy runs.
	Energy bool `json:"energy,omitempty"`
	// TickSeconds is the wall-time one tick models for joule conversion
	// (core.Config.TickSeconds). Zero keeps the default of 1 s.
	TickSeconds float64 `json:"tick_seconds,omitempty"`
	// Policy selects the controller policy (policy.ParseSpec syntax).
	// Empty and "willow" are byte-identical. Recorded in snapshots so a
	// restored or replicated daemon rebuilds the same controller.
	Policy string `json:"policy,omitempty"`

	// Server power and thermal constants (power.ServerModel,
	// thermal.Model, cluster.Config circuit limit and hot-zone ambient).
	StaticWatts  float64 `json:"static_watts,omitempty"`
	PeakWatts    float64 `json:"peak_watts,omitempty"`
	CircuitLimit float64 `json:"circuit_limit,omitempty"`
	ThermalC1    float64 `json:"thermal_c1,omitempty"`
	ThermalC2    float64 `json:"thermal_c2,omitempty"`
	Ambient      float64 `json:"ambient_c,omitempty"`
	ThermalLimit float64 `json:"thermal_limit_c,omitempty"`
	HotAmbient   float64 `json:"hot_ambient_c,omitempty"`
	HotServers   []int   `json:"hot_servers,omitempty"`
	// Workload mix (cluster.Config).
	AppsPerServer   int     `json:"apps_per_server,omitempty"`
	PriorityClasses int     `json:"priority_classes,omitempty"`
	IPCFlows        int     `json:"ipc_flows,omitempty"`
	IPCRate         float64 `json:"ipc_rate,omitempty"`
	// Controller constants (core.Config).
	Eta1             int     `json:"eta1,omitempty"`
	Eta2             int     `json:"eta2,omitempty"`
	Alpha            float64 `json:"alpha,omitempty"`
	PMin             float64 `json:"pmin_watts,omitempty"`
	MigCostWatts     float64 `json:"migration_cost_watts,omitempty"`
	ConsolidateBelow float64 `json:"consolidate_below,omitempty"`
}

// DefaultSpec is the paper topology at 50 % utilization — what willowd
// and willow-sim run with no flags.
func DefaultSpec() Spec {
	return Spec{
		Util:    0.5,
		Fanout:  []int{2, 3, 3},
		Ticks:   400,
		Warmup:  100,
		Seed:    2011,
		Supply:  "constant",
		Hotzone: true,
	}
}

// UnmarshalJSON decodes strictly: a field this binary does not know —
// from a newer writer, or a typo like "hotzon" — is an error rather
// than a silently different run. Every spec decoder (snapshot, WAL,
// replication, -config) goes through here. Empty optional lists decode
// as nil, as omitempty re-encodes them, so a decoded spec round-trips
// to a reflect.DeepEqual copy.
func (s *Spec) UnmarshalJSON(data []byte) error {
	type plain Spec // drops the methods, so Decode does not recurse
	var p plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("%w: %v", errSpecJSON, err)
	}
	if len(p.SupplyTrace) == 0 {
		p.SupplyTrace = nil
	}
	if len(p.HotServers) == 0 {
		p.HotServers = nil
	}
	*s = Spec(p)
	return nil
}

// errSpecJSON marks a spec this binary cannot decode.
var errSpecJSON = errors.New("server: bad spec")

// Servers returns the server count the fan-out implies.
func (s Spec) Servers() int {
	n := 1
	for _, f := range s.Fanout {
		n *= f
	}
	return n
}

// orDefault returns v unless it is the zero value, else def.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// Build expands the Spec into a full cluster configuration. willow-sim
// and willowd both run what it returns, so a fast-forward daemon run
// is byte-identical to the offline simulator on the same spec.
func (s Spec) Build() (cluster.Config, error) {
	if s.Ticks <= 0 {
		return cluster.Config{}, fmt.Errorf("server: spec ticks must be positive, got %d", s.Ticks)
	}
	// Written so that NaN, which fails every comparison, fails both.
	if !(s.Util > 0 && s.Util <= 1) {
		return cluster.Config{}, fmt.Errorf("server: spec util must be in (0, 1], got %v", s.Util)
	}
	if !(s.TickSeconds >= 0 && s.TickSeconds <= math.MaxFloat64) {
		return cluster.Config{}, fmt.Errorf("server: spec tick_seconds must be finite and non-negative, got %v", s.TickSeconds)
	}
	if len(s.Fanout) == 0 {
		return cluster.Config{}, errors.New("server: spec fanout is empty")
	}
	cfg := cluster.PaperConfig(s.Util)
	cfg.Fanout = s.Fanout
	cfg.Ticks = s.Ticks
	cfg.Warmup = s.Warmup
	cfg.Seed = s.Seed
	n := 1
	for _, f := range cfg.Fanout {
		if f <= 0 {
			return cluster.Config{}, fmt.Errorf("server: fan-out %v has a non-positive level", cfg.Fanout)
		}
		n *= f
	}

	cfg.ServerPower = power.ServerModel{
		Static: orDefault(s.StaticWatts, cfg.ServerPower.Static),
		Peak:   orDefault(s.PeakWatts, cfg.ServerPower.Peak),
	}
	if err := cfg.ServerPower.Validate(); err != nil {
		return cluster.Config{}, err
	}
	cfg.Thermal = thermal.Model{
		C1:      orDefault(s.ThermalC1, cfg.Thermal.C1),
		C2:      orDefault(s.ThermalC2, cfg.Thermal.C2),
		Ambient: orDefault(s.Ambient, cfg.Thermal.Ambient),
		Limit:   orDefault(s.ThermalLimit, cfg.Thermal.Limit),
	}
	if err := cfg.Thermal.Validate(); err != nil {
		return cluster.Config{}, err
	}
	cfg.CircuitLimit = s.CircuitLimit
	cfg.HotAmbient = orDefault(s.HotAmbient, cfg.HotAmbient)
	switch {
	case !s.Hotzone:
		cfg.HotServers = nil
	case len(s.HotServers) > 0:
		cfg.HotServers = s.HotServers
	case n != 18:
		cfg.HotServers = nil
	}
	cfg.AppsPerServer = orDefault(s.AppsPerServer, cfg.AppsPerServer)
	cfg.PriorityClasses = s.PriorityClasses
	cfg.IPCFlows = s.IPCFlows
	cfg.IPCRate = s.IPCRate

	rated := float64(n) * cfg.ServerPower.Peak
	switch s.Supply {
	case "", "constant":
		cfg.Supply = power.Constant(orDefault(s.SupplyWatts, rated))
	case "sine":
		cfg.Supply = power.Sine{
			Base:      orDefault(s.SupplyBase, rated*0.8),
			Amplitude: orDefault(s.SupplyAmplitude, rated*0.25),
			Period:    orDefault(s.SupplyPeriod, 24),
		}
	case "deficit-steps":
		cfg.Supply = power.Trace{rated, rated, rated * 0.6, rated * 0.6, rated * 0.9, rated, rated * 0.55, rated}
	case "deficit":
		cfg.Supply = power.DeficitTrace()
	case "plenty":
		cfg.Supply = power.PlentyTrace()
	case "trace":
		if len(s.SupplyTrace) == 0 {
			return cluster.Config{}, errors.New("server: supply \"trace\" needs supply_trace samples")
		}
		cfg.Supply = power.Trace(s.SupplyTrace)
	default:
		return cluster.Config{}, fmt.Errorf("server: unknown supply profile %q (use constant, sine, deficit-steps, deficit, plenty, trace, or the -supply flag's file:PATH)", s.Supply)
	}
	if s.SupplyScale != 0 && s.SupplyScale != 1 {
		cfg.Supply = power.Scaled{S: cfg.Supply, Factor: s.SupplyScale}
	}

	c := &cfg.Core
	c.Eta1 = orDefault(s.Eta1, c.Eta1)
	c.Eta2 = orDefault(s.Eta2, c.Eta2)
	c.Alpha = orDefault(s.Alpha, c.Alpha)
	c.PMin = orDefault(s.PMin, c.PMin)
	c.MigCostWatts = orDefault(s.MigCostWatts, c.MigCostWatts)
	c.ConsolidateBelow = orDefault(s.ConsolidateBelow, c.ConsolidateBelow)
	if s.LeaseTicks > 0 {
		c.BudgetLeaseTicks = s.LeaseTicks
	}
	c.EnergyEvents = s.Energy
	if s.TickSeconds > 0 {
		c.TickSeconds = s.TickSeconds
	}
	if s.Sensing && c.SensorWindow == 0 && c.SensorGate == 0 && c.SensorTrips == 0 && c.SensorGuard == 0 {
		c.SensorWindow = 5
		c.SensorGate = 3
		c.SensorTrips = 3
		c.SensorGuard = 2
	}

	if s.Policy != "" {
		// Validate at boot (clear error now beats a panic later); the
		// machine builds its own fresh instance from the spec string.
		if _, err := policy.ParseSpec(s.Policy); err != nil {
			return cluster.Config{}, fmt.Errorf("server: %w", err)
		}
		cfg.Policy = s.Policy
	}

	chaosSeed := orDefault(s.ChaosSeed, cfg.Seed)
	if s.Chaos != "" {
		if _, err := cluster.ApplyChaos(&cfg, s.Chaos, chaosSeed); err != nil {
			return cluster.Config{}, err
		}
	}
	if s.SensorChaos != "" {
		cfg.NaiveSensing = s.SensorNaive
		if _, err := cluster.ApplySensorChaos(&cfg, s.SensorChaos, chaosSeed); err != nil {
			return cluster.Config{}, err
		}
	}
	return cfg, nil
}

// RegisterFlags defines the scenario flags on fs, bound to s: each
// flag's default is s's current value, and parsing writes straight
// into s. willow-sim and willowd both bind their run this way.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.Float64Var(&s.Util, "util", s.Util, "target mean utilization in (0, 1]")
	fs.Var(fanoutFlag{&s.Fanout}, "fanout", "PMU hierarchy fan-out, root downward")
	fs.IntVar(&s.Ticks, "ticks", s.Ticks, "total demand ticks to simulate")
	fs.IntVar(&s.Warmup, "warmup", s.Warmup, "warm-up ticks excluded from averages")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
	fs.Var(&supplyFlag{s: s}, "supply", "supply profile: constant, sine, deficit-steps, deficit, plenty, or file:PATH (a CSV trace, inlined into the spec)")
	fs.BoolVar(&s.Hotzone, "hotzone", s.Hotzone, "place the hot servers (hot_servers, else the last four of an 18-server fleet) in the hot ambient")
	fs.StringVar(&s.Chaos, "chaos", s.Chaos, "fold a seeded fault schedule into the run: preset and/or k=v overrides, e.g. \"medium\" or \"light,pmu-mtbf=400\" (see internal/chaos)")
	fs.Uint64Var(&s.ChaosSeed, "chaos-seed", s.ChaosSeed, "seed for chaos schedule expansion (0: derive from -seed)")
	fs.StringVar(&s.SensorChaos, "sensor-chaos", s.SensorChaos, "fold seeded sensor faults into the run: preset and/or k=v overrides, e.g. \"heavy\" or \"light,dropout=1\" (see internal/sensor)")
	fs.BoolVar(&s.SensorNaive, "sensor-naive", s.SensorNaive, "disable the robust estimator under -sensor-chaos (trust every reading; unsafe baseline)")
	fs.IntVar(&s.LeaseTicks, "lease", s.LeaseTicks, "budget lease ticks (arm before injecting live PMU chaos; 0 = off)")
	fs.BoolVar(&s.Sensing, "sensing", s.Sensing, "arm the robust temperature estimator at boot (for live sensor chaos)")
	fs.BoolVar(&s.Energy, "energy", s.Energy, "emit per-supply-window energy telemetry events (accounting is always on; willow-sim also prints the scoreboard)")
	fs.Float64Var(&s.TickSeconds, "tick-seconds", s.TickSeconds, "simulated seconds one tick models for joule conversion (0 = 1 s)")
	fs.StringVar(&s.Policy, "policy", s.Policy, "controller policy: willow (default), integral, or mpc, plus ,key=val knobs (see internal/policy)")
}

// fanoutFlag is the -fanout value: comma-separated levels, root first.
type fanoutFlag struct{ p *[]int }

func (f fanoutFlag) String() string {
	if f.p == nil { // the zero value flag.PrintDefaults probes
		return ""
	}
	parts := make([]string, len(*f.p))
	for i, v := range *f.p {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (f fanoutFlag) Set(v string) error {
	parts := strings.Split(v, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("bad fan-out %q: %w", v, err)
		}
		out = append(out, n)
	}
	*f.p = out
	return nil
}

// supplyFlag is the -supply value. file:PATH reads the CSV trace now
// and inlines it as Supply "trace"; String keeps the text it was set
// with, so reports can name the file.
type supplyFlag struct {
	s    *Spec
	text string
}

func (f *supplyFlag) String() string {
	if f.s == nil { // the zero value flag.PrintDefaults probes
		return ""
	}
	return orDefault(f.text, f.s.Supply)
}

func (f *supplyFlag) Set(v string) error {
	f.s.Supply, f.s.SupplyTrace = v, nil
	if path, ok := strings.CutPrefix(v, "file:"); ok {
		tr, err := trace.ReadFile(path)
		if err != nil {
			return err
		}
		f.s.Supply, f.s.SupplyTrace = "trace", tr
	}
	f.text = v
	return nil
}
