// Package core implements Willow, the hierarchical control scheme for
// energy- and thermal-adaptive computing of Kant, Murugan & Du (IPDPS
// 2011) — the paper's primary contribution.
//
// A Controller owns a PMU hierarchy (internal/topo) whose leaves are
// servers hosting applications (internal/workload). Each control tick is
// one demand window Δ_D:
//
//  1. Servers observe their instantaneous demand and smooth it with the
//     paper's Eq. 4; reports propagate up the tree (one message per link
//     per tick).
//  2. Every η1 ticks (the supply window Δ_S) the available supply is
//     re-allocated down the tree proportionally to smoothed demand,
//     subject to hard constraints — the thermal power limit of Eq. 3 and
//     the circuit limit — with a waterfill redistributing budget that
//     capped nodes cannot take (Section IV-D).
//  3. Every tick, tightening constraints trigger unidirectional,
//     bottom-up demand migrations: deficits are peeled into application
//     units and matched against sibling surpluses first (local
//     migrations), escalating unsatisfied demand up the hierarchy
//     (non-local) — never into a subtree whose budget was reduced by the
//     triggering event, and only when both endpoints retain the P_min
//     margin afterwards (Section IV-E). Unsatisfiable excess is dropped.
//  4. Every η2 ticks, consolidation drains servers running below the
//     utilization threshold and puts them to sleep; sustained deficits
//     wake sleeping servers (with latency).
//  5. Temperatures integrate forward under the consumed power
//     (internal/thermal) and statistics are recorded.
package core

import (
	"fmt"

	"willow/internal/power"
	"willow/internal/sensor"
	"willow/internal/thermal"
	"willow/internal/topo"
	"willow/internal/workload"
)

// Config holds Willow's tunables. Zero fields are replaced by the
// paper-faithful defaults (see Defaults).
type Config struct {
	// Alpha is the exponential smoothing parameter of Eq. 4, in (0, 1].
	Alpha float64
	// Eta1 is η1: supply adaptations happen every Eta1 demand ticks
	// (Δ_S = η1·Δ_D). The paper's simulation uses 4.
	Eta1 int
	// Eta2 is η2: consolidation decisions happen every Eta2 demand ticks
	// (Δ_A = η2·Δ_D), η2 > η1. The paper's simulation uses 7.
	Eta2 int
	// PMin is the power margin (watts) that must remain as surplus on
	// both the source and the target after a migration (Section IV-E).
	PMin float64
	// MigCostWatts is the temporary power demand charged to both
	// endpoints of a migration for one tick — the paper's migration cost.
	MigCostWatts float64
	// ConsolidateBelow is the utilization threshold under which a server
	// becomes a consolidation candidate. The paper's experiment uses 20 %.
	ConsolidateBelow float64
	// PingPongWindow is Δf in ticks: an application returning to a node
	// it left within this window counts as a ping-pong (Property 4).
	PingPongWindow int
	// WakeLatency is how many ticks a sleeping server needs to come back
	// (S3/S4 resume latency).
	WakeLatency int
	// ThermalWindow is the adjustment window Δs (in thermal-model time
	// units) over which the Eq. 3 power limit is computed.
	ThermalWindow float64
	// ThermalDt is how many thermal-model time units elapse per tick when
	// integrating temperature.
	ThermalDt float64
	// NoiseLambda controls per-app demand fluctuation (see workload.App).
	// Zero takes the paper default (25); a negative value disables
	// fluctuation entirely — demand is then the exact app means, which
	// also makes the per-tick demand draw free of random-stream
	// consumption (the steady-fleet scale benchmarks rely on this).
	NoiseLambda float64
	// LocalOnly restricts migrations to siblings (no escalation up the
	// hierarchy). It exists for the ablation baseline isolating the value
	// of non-local migrations; Willow proper leaves it false.
	LocalOnly bool
	// ReportLatency delays upward demand reports by this many ticks per
	// hierarchy level (see async.go). Zero — the default — models the
	// paper's δ ≪ Δ_D regime: reports arrive within the window they were
	// sent in.
	ReportLatency int
	// ReportLoss is the per-link, per-tick probability that a demand
	// report is lost; the parent then acts on the previous value. Must
	// be in [0, 1).
	ReportLoss float64
	// MigrationLatency is how many ticks a VM transfer takes. Zero — the
	// default — moves applications within the decision window; positive
	// values keep the application (and its demand) at the source until
	// the transfer lands, with the destination's surplus reserved in the
	// meantime (see transfer.go).
	MigrationLatency int
	// BudgetLeaseTicks makes every downward budget directive a lease: a
	// node that has not heard from its parent within this many ticks
	// enters degraded mode — it holds its last-known budget and decays
	// it geometrically per supply window toward an autonomous safe floor
	// (see degraded.go). Zero — the default — disables leases entirely:
	// budgets are held forever, exactly the paper's fail-free control
	// plane.
	BudgetLeaseTicks int
	// DegradedDecay is the geometric decay factor applied per supply
	// window to a degraded node's budget excess over its safe floor, in
	// (0, 1]; 1 holds the stale budget without decaying. Zero takes the
	// default of 0.5. Only meaningful with BudgetLeaseTicks > 0.
	DegradedDecay float64
	// BudgetLatency delays downward budget directives by this many
	// supply windows per link — the downward mirror of ReportLatency
	// (directives flow once per Δ_S, so the pipe is clocked in windows).
	// Zero delivers budgets within the window they were computed in.
	BudgetLatency int
	// BudgetLoss is the per-link, per-window probability that a budget
	// directive is lost — the downward mirror of ReportLoss. A lost
	// directive leaves the child on its previous budget and ages its
	// lease. Must be in [0, 1).
	BudgetLoss float64
	// SensorWindow enables the robust temperature estimator (sensing.go)
	// and sets its median-filter length in accepted readings. With every
	// Sensor* knob zero — the default — the estimator is the identity:
	// each server's control temperature TObs tracks its sensor reading
	// (the physical truth when no sensor fault model is attached) and
	// the control path is byte-identical to a build without the sensing
	// layer. Setting any Sensor* knob arms the estimator; SensorWindow
	// then defaults to 5.
	SensorWindow int
	// SensorGate is the residual gate in °C: a reading farther than this
	// from the RC-model one-step prediction is rejected. Zero accepts
	// every finite reading (the median and model anchor still apply).
	SensorGate float64
	// SensorTrips is how many consecutive rejected readings flag a
	// sensor unhealthy (and how many consecutive accepted readings heal
	// it). Defaults to 3 when the estimator is armed.
	SensorTrips int
	// SensorGuard is the safe-side guard band in °C added to the
	// model-predicted temperature while a sensor is unhealthy or
	// dropped out, biasing the Eq. 3 power cap conservative.
	SensorGuard float64
	// TickSeconds is the wall-clock duration modeled by one demand tick
	// Δ_D, in seconds — the watt-ticks → joules conversion factor of
	// the energy accounting pass (energy.go). Zero takes 1.0, making
	// joules numerically equal to watt-ticks.
	TickSeconds float64
	// EnergyEvents opts into KindEnergy telemetry: one per-rack record
	// plus a fleet rollup at the end of every supply window. Off by
	// default so pre-energy event streams stay byte-identical; the
	// accounting itself (EnergyTotals, RackEnergy, ClassEnergy) always
	// runs.
	EnergyEvents bool
	// Shards splits the per-server phases of each tick (demand
	// observation, the allocation pass's rack level, the demand-
	// migration deficit scan, the consolidation candidate scan, and
	// consumption/heating with a SettleObserver's Settled) across up
	// to Shards goroutines, one per contiguous rack-aligned server
	// range. Results are byte-identical for any shard count: parallel
	// phases touch only per-server state and their own racks' node
	// state, and every cross-rack accumulation runs sequentially in
	// server order. 0 or 1 runs the tick single-threaded.
	Shards int
	// Policy plugs an alternative controller into the three control
	// seams (see the Policy interface in policy.go). nil — the default
	// — runs the paper's built-in proportional scheme bit for bit, as
	// does a policy that delegates every hook (policy.Willow). A policy
	// instance is stateful and owned by one Controller: build a fresh
	// one per run (internal/policy.New) rather than sharing a Config
	// value that embeds one.
	Policy Policy
}

// Defaults returns the configuration used by the paper's simulation:
// η1 = 4, η2 = 7, a 20 % consolidation threshold, and smoothing α = 0.3.
func Defaults() Config {
	return Config{
		Alpha:            0.3,
		Eta1:             4,
		Eta2:             7,
		PMin:             10,
		MigCostWatts:     5,
		ConsolidateBelow: 0.20,
		PingPongWindow:   50,
		WakeLatency:      3,
		ThermalWindow:    4,
		ThermalDt:        1,
		NoiseLambda:      25,
	}
}

// withDefaults fills zero values from Defaults and validates.
func (c Config) withDefaults() (Config, error) {
	d := Defaults()
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.Eta1 == 0 {
		c.Eta1 = d.Eta1
	}
	if c.Eta2 == 0 {
		c.Eta2 = d.Eta2
	}
	if c.PMin == 0 {
		c.PMin = d.PMin
	}
	if c.MigCostWatts == 0 {
		c.MigCostWatts = d.MigCostWatts
	}
	if c.ConsolidateBelow == 0 {
		c.ConsolidateBelow = d.ConsolidateBelow
	}
	if c.PingPongWindow == 0 {
		c.PingPongWindow = d.PingPongWindow
	}
	if c.WakeLatency == 0 {
		c.WakeLatency = d.WakeLatency
	}
	if c.ThermalWindow == 0 {
		c.ThermalWindow = d.ThermalWindow
	}
	if c.ThermalDt == 0 {
		c.ThermalDt = d.ThermalDt
	}
	if c.NoiseLambda == 0 {
		c.NoiseLambda = d.NoiseLambda
	}
	if c.DegradedDecay == 0 {
		c.DegradedDecay = 0.5
	}
	if c.TickSeconds == 0 {
		c.TickSeconds = 1
	}
	if c.sensingEnabled() {
		if c.SensorWindow == 0 {
			c.SensorWindow = 5
		}
		if c.SensorTrips == 0 {
			c.SensorTrips = 3
		}
	}
	switch {
	case c.Alpha <= 0 || c.Alpha > 1:
		return c, fmt.Errorf("core: alpha %v outside (0, 1]", c.Alpha)
	case c.Eta1 < 1:
		return c, fmt.Errorf("core: eta1 %d must be >= 1", c.Eta1)
	case c.Eta2 <= c.Eta1:
		return c, fmt.Errorf("core: eta2 %d must exceed eta1 %d (paper requires η2 > η1)", c.Eta2, c.Eta1)
	case c.PMin < 0:
		return c, fmt.Errorf("core: negative PMin %v", c.PMin)
	case c.MigCostWatts < 0:
		return c, fmt.Errorf("core: negative migration cost %v", c.MigCostWatts)
	case c.ConsolidateBelow < 0 || c.ConsolidateBelow >= 1:
		return c, fmt.Errorf("core: consolidation threshold %v outside [0, 1)", c.ConsolidateBelow)
	case c.ReportLatency < 0:
		return c, fmt.Errorf("core: negative report latency %d", c.ReportLatency)
	case c.ReportLoss < 0 || c.ReportLoss >= 1:
		return c, fmt.Errorf("core: report loss %v outside [0, 1)", c.ReportLoss)
	case c.MigrationLatency < 0:
		return c, fmt.Errorf("core: negative migration latency %d", c.MigrationLatency)
	case c.BudgetLeaseTicks < 0:
		return c, fmt.Errorf("core: negative budget lease %d", c.BudgetLeaseTicks)
	case c.DegradedDecay <= 0 || c.DegradedDecay > 1:
		return c, fmt.Errorf("core: degraded decay %v outside (0, 1]", c.DegradedDecay)
	case c.BudgetLatency < 0:
		return c, fmt.Errorf("core: negative budget latency %d", c.BudgetLatency)
	case c.BudgetLoss < 0 || c.BudgetLoss >= 1:
		return c, fmt.Errorf("core: budget loss %v outside [0, 1)", c.BudgetLoss)
	case c.SensorWindow < 0:
		return c, fmt.Errorf("core: negative sensor window %d", c.SensorWindow)
	case c.SensorGate < 0 || !isFinite(c.SensorGate):
		return c, fmt.Errorf("core: sensor gate %v must be non-negative and finite", c.SensorGate)
	case c.SensorTrips < 0:
		return c, fmt.Errorf("core: negative sensor trips %d", c.SensorTrips)
	case c.SensorGuard < 0 || !isFinite(c.SensorGuard):
		return c, fmt.Errorf("core: sensor guard %v must be non-negative and finite", c.SensorGuard)
	case c.Shards < 0:
		return c, fmt.Errorf("core: negative shard count %d", c.Shards)
	case c.TickSeconds <= 0 || !isFinite(c.TickSeconds):
		return c, fmt.Errorf("core: tick duration %v must be positive and finite", c.TickSeconds)
	}
	return c, nil
}

// sensingEnabled reports whether the robust estimator is armed: any
// sensing knob non-zero. All-zero is the identity contract (see
// Config.SensorWindow).
func (c Config) sensingEnabled() bool {
	return c.SensorWindow > 0 || c.SensorGate > 0 || c.SensorTrips > 0 || c.SensorGuard > 0
}

// tolerance absorbs floating-point dust in budget arithmetic.
const tolerance = 1e-6

// ServerSpec describes one leaf server at construction time.
type ServerSpec struct {
	Power        power.ServerModel
	Thermal      thermal.Model
	CircuitLimit float64 // watts; 0 means "no circuit limit beyond Peak"
	Apps         []*workload.App
}

// Server is the runtime view of one leaf. The per-tick hot fields
// (demand, budgets, consumption, sleep state, observed temperature)
// live in the controller's struct-of-arrays slab (state.go) and are
// reached through accessor methods; the struct itself keeps only the
// cold, per-server-object state.
type Server struct {
	Node         *topo.Node
	Power        power.ServerModel
	Thermal      *thermal.State
	CircuitLimit float64
	Apps         workload.Set

	// hot is the controller-owned slab holding this server's hot fields
	// at index idx (= Node.ServerIndex).
	hot *fleetHot
	idx int

	smoother *workload.Smoother

	// wakeAt is the tick at which a waking server becomes available
	// (-1 when not waking).
	wakeAt int

	// migCost is the pending migration cost to charge into the next
	// tick's demand.
	migCost float64

	// failed marks a crashed server (a failure-injection state, not a
	// control decision); only RepairServer clears it.
	failed bool

	// sensor is the temperature instrument TObs is read through; nil
	// reads the truth directly. est is the per-server robust estimator
	// state; nil when Config's sensing knobs are all zero.
	sensor *sensor.Sensor
	est    *estimator

	// leaseTick is the tick of the last budget directive heard from the
	// parent; lastParentTP the parent's budget reported with it (the
	// fair-share input of the degraded safe floor).
	leaseTick    int
	lastParentTP float64

	// capDecay / capDen cache the constants of the Eq. 3 power limit
	// over the configured adjustment window Δs: capDecay = e^(−c2·Δs),
	// capDen = c1·(1−capDecay). They make the cached hard cap (state.go)
	// a few multiplications instead of a transcendental per server per
	// tick.
	capDecay, capDen float64
}

// HardCap returns the hard constraint: min(thermal power limit over the
// configured adjustment window, circuit limit, rated peak). The Eq. 3
// limit is computed from the observed temperature TObs — the controller
// can only act on what its instruments report (see sensing.go) — and
// cached on every TObs write.
func (s *Server) HardCap() float64 { return s.hot.hardCap[s.idx] }

// Utilization returns the server's current utilization as implied by its
// consumed power.
func (s *Server) Utilization() float64 {
	if s.hot.asleep[s.idx] {
		return 0
	}
	return s.Power.Utilization(s.hot.consumed[s.idx])
}

// Deficit returns [CP − min(TP, hard cap)]+ (Eq. 5).
func (s *Server) Deficit() float64 { return s.hot.deficit(s.idx, s.hot.cp[s.idx]) }

// Surplus returns [min(TP, hard cap) − CP]+ (Eq. 6).
func (s *Server) Surplus() float64 { return s.hot.surplus(s.idx, s.hot.cp[s.idx]) }
