// Package cluster binds the Willow reproduction together: it builds the
// paper's simulated data center (topology + thermal + power + workload +
// controller + network) and steps it one demand tick at a time, firing
// its fault plan on tick boundaries and collecting the measurements
// behind Figs. 5–12.
package cluster

import (
	"context"
	"fmt"

	"willow/internal/chaos"
	"willow/internal/core"
	"willow/internal/netsim"
	"willow/internal/parallel"
	"willow/internal/power"
	"willow/internal/queueing"
	"willow/internal/telemetry"
	"willow/internal/thermal"
	"willow/internal/workload"
)

// Config describes one simulated data center run.
type Config struct {
	// Fanout is the PMU hierarchy shape, root downward (Fig. 3 uses
	// {2, 3, 3}: 4 levels, 18 servers).
	Fanout []int
	// ServerPower is the per-server utilization→power curve.
	ServerPower power.ServerModel
	// PerServerPower, when non-nil, overrides ServerPower per server
	// (index = server), enabling heterogeneous fleets — e.g. mixing
	// conventional servers with FAWN-style wimpy nodes (the paper's
	// related work [12]). Must have one entry per server.
	PerServerPower []power.ServerModel
	// CircuitLimit caps each server's draw (0 = none beyond Peak).
	CircuitLimit float64
	// Thermal holds the cool-zone thermal constants; HotAmbient overrides
	// the ambient for the servers listed in HotServers (Fig. 5/6's
	// two-zone setup).
	Thermal    thermal.Model
	HotAmbient float64
	HotServers []int
	// AppsPerServer and Classes define the workload mix.
	AppsPerServer int
	Classes       []workload.Class
	// Utilization is the target mean utilization (0, 1]: per-server mean
	// dynamic demand is set to Utilization × (Peak − Static).
	Utilization float64
	// Supply feeds the root PMU, indexed by supply epoch.
	Supply power.Supply
	// DemandProfile, when non-nil, scales every application's mean
	// demand per supply epoch (1.0 = the configured utilization). This
	// is the paper's demand-side variation: "variations in workload
	// intensity" (Section I) — a diurnal request curve, a flash crowd.
	DemandProfile power.Supply
	// Network configures the switch model; zero value uses defaults.
	Network netsim.Config
	// Core configures the controller; zero fields take paper defaults.
	Core core.Config
	// Policy selects the controller policy by spec string
	// (internal/policy.ParseSpec): "" or "willow" run the paper's
	// proportional scheme byte-identically, "integral" and "mpc" swap in
	// the alternative controllers, with ",key=val" tuning knobs.
	// NewMachine builds a fresh stateful instance per machine, so Config
	// values stay reusable across runs; an instance already planted in
	// Core.Policy wins over this string.
	Policy string
	// Warmup ticks are excluded from averaged metrics; Ticks is the total
	// run length.
	Warmup, Ticks int
	// Seed makes the run reproducible.
	Seed uint64
	// PriorityClasses, when positive, assigns each application a QoS
	// priority round-robin over that many classes (0 = most critical);
	// shedding consumes the lowest class first. Zero leaves every
	// application at priority 0.
	PriorityClasses int
	// IPCFlows, when positive, creates that many random app-to-app
	// communication flows of IPCRate traffic units per tick, exercising
	// the future-work scenario of IPC-heavy workloads.
	IPCFlows int
	IPCRate  float64
	// SLO is the latency objective the queueing model evaluates served
	// demand against; the zero value uses a stretch-10 objective
	// (requests may take up to 10× their bare service time, i.e. the SLO
	// is met up to 90 % utilization).
	SLO queueing.SLO
	// Faults is the run's fault plan, fired at fixed ticks: server and
	// PMU crashes and repairs (a dead PMU's subtree rides its budget
	// leases into degraded mode, core.Config.BudgetLeaseTicks), control
	// link loss windows (outside them the Core config's
	// ReportLoss/BudgetLoss apply), and sensor fault windows. Any
	// sensor fault makes the run attach an instrument to every server,
	// each with a private random stream derived from Seed and
	// independent of the simulation's own streams, so naive and
	// estimator-armed runs of the same plan see identical corrupted
	// readings. Typically expanded from a seeded chaos schedule
	// (ApplyChaos).
	Faults chaos.Plan
	// NaiveSensing keeps the robust estimator disarmed when ApplyPlan
	// folds sensor faults into this config: the controller
	// trusts raw readings. It is the estimator-off baseline of the
	// sensing-robustness experiment and changes nothing else.
	NaiveSensing bool
	// Sink, when non-nil, receives every controller telemetry event of
	// the run (budget changes, migrations, throttles, sleep/wake,
	// failures, QoS violations), tick-stamped and in decision order.
	// Sinks need not be concurrency-safe: Run publishes from a single
	// goroutine, and RunAll transparently buffers per run and replays
	// in input order, so even a sink shared across concurrent configs
	// sees one deterministic stream.
	Sink telemetry.Sink
}

// sensorSeedSalt decorrelates the per-server sensor noise streams from
// every simulation stream derived from Config.Seed: the same run seed
// produces the same corruption sequence whether the estimator is armed
// or not, without perturbing workload or chaos draws. (ASCII "SENSOR".)
const sensorSeedSalt = 0x53454e534f52

// PaperConfig returns the configuration of the paper's simulation
// (Section V-B): 4 levels, 18 servers of 450 W, four application classes
// with relative power {1, 2, 5, 9}, Poisson demand, η1 = 4, η2 = 7,
// ambient 25 °C with servers 15–18 in a 40 °C hot zone, thermal limit
// 70 °C, and a supply near the servers' aggregate power rating.
//
// Thermal constants: the paper quotes c1 = 0.08, c2 = 0.05 for the Fig. 4
// window calculation; for sustained operation those values cannot hold a
// 450 W server below 70 °C (see DESIGN.md §6), so the long-running
// simulation uses c2 = 0.05 with c1 = 0.005, calibrated so the
// sustainable thermal power at 25 °C ambient equals the 450 W rating —
// preserving the paper's intended behaviour: cool-zone servers can run
// flat out, 40 °C-zone servers throttle to 2/3 of it.
func PaperConfig(utilization float64) Config {
	return Config{
		Fanout:        []int{2, 3, 3},
		ServerPower:   power.ServerModel{Static: 135, Peak: 450},
		Thermal:       thermal.Model{C1: 0.005, C2: 0.05, Ambient: 25, Limit: 70},
		HotAmbient:    40,
		HotServers:    []int{14, 15, 16, 17}, // servers 15–18, 1-based
		AppsPerServer: 4,
		Classes:       workload.SimClasses(),
		Utilization:   utilization,
		Supply:        power.Constant(18 * 450),
		Network:       netsim.DefaultConfig(),
		Core:          core.Defaults(),
		Warmup:        100,
		Ticks:         400,
		Seed:          2011, // the paper's year; any fixed seed works
	}
}

// Result carries the measurements of one run.
type Result struct {
	Config Config

	// MeanPower is each server's mean consumed power over the measured
	// window (Fig. 5).
	MeanPower []float64
	// MeanTemp is each server's mean temperature (Fig. 6).
	MeanTemp []float64
	// PowerSaved is each server's mean static power avoided by sleeping
	// (Fig. 7): static × fraction of measured ticks spent asleep.
	PowerSaved []float64
	// AsleepFraction is each server's fraction of measured ticks asleep.
	AsleepFraction []float64

	// DemandMigrations / ConsolidationMigrations count by cause (Fig. 9).
	DemandMigrations        int
	ConsolidationMigrations int
	// MigrationShare is migration traffic normalized to network capacity
	// (Fig. 10).
	MigrationShare float64
	// SwitchPower is the mean power of each level-1 switch (Fig. 11).
	SwitchPower []float64
	// SwitchMigrationTraffic is the migration traffic per level-1 switch
	// (Fig. 12).
	SwitchMigrationTraffic []float64

	// TotalEnergy is the run's summed server consumption (watt-ticks,
	// measured window).
	TotalEnergy float64
	// DroppedWattTicks is shed demand over the whole run.
	DroppedWattTicks float64
	// Stats is the controller's raw accounting.
	Stats core.Stats
	// MaxTemp is the hottest *true* temperature any server reached
	// (whole run) — physical state, not the sensor view, so it exposes
	// violations that a lying instrument would hide.
	MaxTemp float64
	// MaxObsTemp is the hottest temperature any server's sensor path
	// reported to the controller (TObs, whole run).
	MaxObsTemp float64
	// LimitViolationTicks counts server-ticks (whole run) on which a
	// server's true temperature exceeded its thermal limit — the
	// headline safety figure of the sensing-robustness experiment.
	LimitViolationTicks int
	// MeanFlowHops is the average switch hops per IPC flow observation
	// (populated when Config.IPCFlows > 0).
	MeanFlowHops float64
	// MeanImbalance is the mean of the paper's Eq. 9 power imbalance per
	// hierarchy level (index = level, 0 = servers), measured after
	// warm-up — the error-accumulation picture of Section IV-E.
	MeanImbalance []float64
	// MeanStretch is the demand-weighted mean request slowdown (M/G/1-PS
	// model) over the measured window; StretchP95 its 95th percentile;
	// SLOMissFraction is the fraction of offered demand shed or served
	// slower than the SLO.
	MeanStretch     float64
	StretchP95      float64
	SLOMissFraction float64

	// Energy is the run's cumulative energy accounting (whole run,
	// joules): the efficiency scoreboard experiments rank
	// configurations by. Kept as the struct's last field — the golden
	// scenario pin strips it positionally (see encodeResult); its
	// determinism is pinned by the dedicated energy identity tests.
	Energy EnergyReport
}

// EnergyReport is a run's energy scoreboard: fleet-wide totals plus the
// per-rack and per-app-class breakdowns, all in joules (watt-ticks ×
// Core.TickSeconds).
type EnergyReport struct {
	// TickSeconds echoes the conversion factor the joules were computed
	// with.
	TickSeconds float64
	Fleet       core.EnergyTotals
	Racks       []core.RackEnergy
	Classes     []core.ClassEnergy
}

// Run executes the configured simulation and returns its measurements.
// It is a Machine stepped to completion (see machine.go), so the live
// daemon and the offline simulator share one code path — and one event
// stream, byte for byte.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// UtilizationSweep runs the paper configuration across the given target
// utilizations, returning one Result per point. This is the x-axis of
// Figs. 5–7 and 9–12. Points are independent deterministic simulations,
// so they run concurrently — one goroutine per point, bounded by
// GOMAXPROCS — and the result order matches the input order regardless
// of completion order.
func UtilizationSweep(utils []float64, modify func(*Config)) ([]*Result, error) {
	configs := make([]Config, len(utils))
	for i, u := range utils {
		configs[i] = PaperConfig(u)
		if modify != nil {
			modify(&configs[i])
		}
	}
	return RunAll(configs)
}

// RunAll executes independent simulations concurrently (bounded by
// GOMAXPROCS) and returns their results in input order. The first error
// encountered (by input order) is returned.
//
// Telemetry stays deterministic under the fan-out: each config's Sink
// is swapped for a private buffer during the run, and the buffers are
// replayed into the original sinks sequentially in input order after
// every run completes — so a sink shared across configs sees the exact
// stream a sequential walk would have produced, regardless of worker
// interleaving.
func RunAll(configs []Config) ([]*Result, error) {
	sinks := make([]telemetry.Sink, len(configs))
	buffers := make([]*telemetry.Buffer, len(configs))
	for i := range configs {
		if configs[i].Sink != nil {
			sinks[i] = configs[i].Sink
			buffers[i] = &telemetry.Buffer{}
			configs[i].Sink = buffers[i]
		}
	}

	out := make([]*Result, len(configs))
	// Each run ignores the pool's context: a failure must not cancel a
	// lower-index run whose own error would then be lost.
	err := parallel.ForEach(context.Background(), len(configs), 0, func(_ context.Context, i int) error {
		var err error
		if out[i], err = Run(configs[i]); err != nil {
			return fmt.Errorf("cluster: run %d (U=%v): %w", i, configs[i].Utilization, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, buf := range buffers {
		if buf != nil {
			buf.ReplayTo(sinks[i])
		}
	}
	return out, nil
}
