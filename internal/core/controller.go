package core

import (
	"fmt"
	"math"
	"time"

	"willow/internal/dist"
	"willow/internal/power"
	"willow/internal/telemetry"
	"willow/internal/thermal"
	"willow/internal/topo"
	"willow/internal/workload"
)

// Cause labels why a migration happened (Fig. 9 distinguishes the two).
type Cause int

const (
	// CauseDemand marks constraint-driven migrations: a deficit forced
	// workload off a node.
	CauseDemand Cause = iota
	// CauseConsolidation marks migrations that drain an under-utilized
	// server so it can sleep.
	CauseConsolidation
	// CauseRestart marks an orphaned application re-placed after its
	// host crashed (failure injection).
	CauseRestart
)

func (c Cause) String() string {
	switch c {
	case CauseDemand:
		return "demand"
	case CauseConsolidation:
		return "consolidation"
	case CauseRestart:
		return "restart"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Migration records one applied migration.
type Migration struct {
	Tick  int
	AppID int
	// From and To are server indices (topo.Node.ServerIndex).
	From, To int
	// Watts is the mean power demand moved.
	Watts float64
	// Bytes is the VM footprint transferred (drives network cost).
	Bytes float64
	Cause Cause
	// Local reports whether source and target are siblings.
	Local bool
	// Hops is the number of switches on the migration path.
	Hops int
}

// Stats aggregates a run's control-plane measurements.
type Stats struct {
	Migrations []Migration
	// DemandMigrations and ConsolidationMigrations count by cause.
	DemandMigrations        int
	ConsolidationMigrations int
	LocalMigrations         int
	// DroppedWattTicks accumulates shed demand (watts × ticks).
	DroppedWattTicks float64
	// DemandByPriority / ServedByPriority accumulate per-QoS-class
	// watt-ticks; shedding consumes the lowest-priority class first.
	DemandByPriority, ServedByPriority map[int]float64
	// DegradedAppTicks counts application-windows served partially;
	// ShutdownAppTicks counts application-windows shed entirely.
	DegradedAppTicks, ShutdownAppTicks int64
	// PingPongs counts applications that returned to a node they had left
	// within the Δf window — Willow's stability property demands zero.
	PingPongs int
	// MessagesUp / MessagesDown count control messages over tree links.
	MessagesUp, MessagesDown int64
	// MaxLinkMessagesPerTick is the largest number of messages observed
	// on any single link in any single tick (Property 3 bounds it by 2).
	MaxLinkMessagesPerTick int
	// Wakes counts sleeping servers brought back.
	Wakes int
	// AbortedTransfers counts in-flight migrations cancelled because the
	// destination became unavailable (MigrationLatency > 0 only).
	AbortedTransfers int
	// Failures / Repairs / Restarts count injected crashes, repairs, and
	// orphaned applications restarted elsewhere. OrphanWattTicks
	// accumulates demand stranded while awaiting restart.
	Failures, Repairs, Restarts int
	OrphanWattTicks             float64
	// PMUFailures / PMURepairs count injected control-plane (PMU node)
	// crashes and repairs (failure.go).
	PMUFailures, PMURepairs int
	// LeaseExpiries counts nodes (servers and PMUs) entering degraded
	// mode after their budget lease ran out; DegradedTicks accumulates
	// server-ticks spent degraded (degraded.go).
	LeaseExpiries int
	DegradedTicks int64
	// SensorFaults counts injected sensor faults; SensorRejected the
	// readings the estimator's residual gate refused (dropouts
	// included); SensorUnhealthy how many times a sensor tripped the
	// persistent-rejection threshold; SensorGuardTicks the server-ticks
	// controlled on the model-predicted fallback temperature plus guard
	// band (sensing.go).
	SensorFaults, SensorRejected, SensorUnhealthy int
	SensorGuardTicks                              int64
}

// Controller is a running Willow instance.
type Controller struct {
	Cfg    Config
	Tree   *topo.Tree
	Supply power.Supply

	Servers []*Server    // by server index
	hot     *fleetHot    // struct-of-arrays per-server hot state (state.go)
	src     *dist.Source // demand noise
	tick    int          // current tick (next Step executes this tick)
	Stats   Stats

	// Sink, when non-nil, receives a typed telemetry event at every
	// control decision: budget allocations, migrations, thermal
	// throttles, sleep/wake transitions, failures and QoS violations.
	// Events are stamped with the simulation tick (never wall clock),
	// so a run's stream is byte-reproducible. A nil Sink costs nothing
	// — every publication site is guarded by a nil check before the
	// event is even constructed. Events published during a Step buffer
	// and flush as one batch at the step boundary, in decision order.
	Sink telemetry.Sink

	// Per-PMU control state, indexed by tree node ID (leaf slots
	// unused). pmuCP is the subtree's aggregated smoothed demand as the
	// PMU knows it; pmuTP the budget granted from above; pmuReduced the
	// unidirectional-rule flag; pmuDegraded/pmuLeaseTick/pmuLastParentTP
	// mirror the Server budget-lease state (degraded.go).
	pmuCP, pmuTP    []float64
	pmuReduced      []bool
	pmuDegraded     []bool
	pmuLeaseTick    []int
	pmuLastParentTP []float64

	// lastLeft tracks, per app, where and when it last migrated from, to
	// detect ping-pong control.
	lastLeft map[int]leftRecord

	// draining marks servers being emptied by the current consolidation
	// pass so they do not receive migrations mid-drain.
	draining map[int]bool

	// Link-message accounting (state.go): upStamp/downStamp are
	// tick-stamped by child node ID; tickUp/tickDown count distinct
	// links that carried a report/directive this step; bothDir records
	// that some link carried both directions; liveUpLinks caches the
	// synchronous-mode structural report count.
	upStamp, downStamp []int
	stamp              int
	tickUp, tickDown   int
	bothDir            bool
	liveUpLinks        int

	// pipes delay upward reports per link when the asynchronous control
	// plane is enabled (see async.go); budgetPipes do the same for the
	// downward budget directives (see degraded.go). Indexed by child
	// node ID, created lazily.
	pipes       []*reportPipe
	budgetPipes []*budgetPipe

	// failedPMU marks crashed internal nodes (FailPMU): they neither
	// aggregate reports nor issue budgets, and migrations never cross
	// their span. All-false in the paper's fail-free regime. delivered
	// is the resilient allocation pass's per-window scratch, marking
	// which nodes heard a budget directive (degraded.go).
	failedPMU      []bool
	failedPMUCount int
	delivered      []bool

	// levels caches the internal nodes per level (index = level) so the
	// per-tick aggregation does not rescan the whole tree; scratch holds
	// each internal node's preallocated allocation buffers (by node ID).
	// subCap/subFloor hold each internal node's subtree hard cap and
	// static floor for the current allocation pass (allocate.go), over
	// the internal-node prefix of the node IDs.
	levels           [][]*topo.Node
	scratch          []*allocScratch
	subCap, subFloor []float64

	// prioDemand/prioServed accumulate per-priority QoS watt-ticks
	// (qos.go), indexed by App.Priority; prioSeen marks the priorities
	// recorded so far. Step copies them into Stats once per tick.
	prioDemand, prioServed []float64
	prioSeen               []bool

	// transfers, inFlight and reserved implement non-instantaneous VM
	// migration (see transfer.go). pendingSleep marks drained servers
	// waiting for their outbound transfers to land before deactivating.
	transfers    []transfer
	inFlight     map[int]bool
	reserved     map[int]float64
	pendingSleep map[int]bool

	// orphans hold applications whose host crashed, awaiting restart
	// (see failure.go).
	orphans []orphan

	// wasAsync records that the previous tick aggregated through the
	// report pipes, so a switch back to synchronous mode (a loss window
	// closing) re-sums the whole tree once.
	wasAsync bool

	// noisyDemand is set when any application draws Poisson demand
	// noise: the per-server demand loop then consumes the shared random
	// stream in server order and must stay sequential. sensorsArmed is
	// set when any server carries an instrument or estimator, forcing
	// the sequential consume path (sensing mutates shared counters).
	noisyDemand  bool
	sensorsArmed bool

	// shardPlan is the rack-aligned partition of the fleet the parallel
	// tick phases run over (state.go); evBuf/effBuf/needSlow are the
	// per-server scratch the sharded consume phase writes race-free and
	// the sequential merge phase drains in server order.
	shardPlan []shardRange
	evBuf     [][]telemetry.Event
	effBuf    []float64
	needSlow  []bool

	// inStep gates telemetry batching; eventBuf is the step's pending
	// batch (state.go).
	inStep   bool
	eventBuf []telemetry.Event

	// energy is the per-tick energy accounting state (energy.go):
	// always on, allocation-free, sequential in server order.
	energy *energyAcc

	// pol is the bound controller policy (Cfg.Policy); nil runs the
	// built-in Willow scheme on every seam (policy.go).
	pol Policy

	// Phases, when non-nil, receives the wall-clock duration of the
	// observe/allocate/consume tick phases. Wall-clock figures never
	// enter the telemetry stream or any simulation state — they exist
	// for live-daemon latency histograms only, so attaching an observer
	// cannot perturb a run's bytes. A nil Phases costs nothing: the
	// clock is never read.
	Phases PhaseObserver
}

// PhaseObserver consumes wall-clock tick-phase latencies (see
// Controller.Phases). Implementations must not touch simulation state.
type PhaseObserver interface {
	ObservePhase(phase string, seconds float64)
}

type leftRecord struct {
	from int
	tick int
}

// New builds a Controller over the given tree. specs must have one entry
// per server (tree.NumServers()).
func New(tree *topo.Tree, specs []ServerSpec, supply power.Supply, cfg Config, src *dist.Source) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if len(specs) != tree.NumServers() {
		return nil, fmt.Errorf("core: %d server specs for %d servers", len(specs), tree.NumServers())
	}
	if supply == nil {
		return nil, fmt.Errorf("core: nil supply")
	}
	if src == nil {
		src = dist.NewSource(0)
	}

	numNodes := len(tree.Nodes)
	numServers := tree.NumServers()
	c := &Controller{
		Cfg:             cfg,
		Tree:            tree,
		Supply:          supply,
		hot:             newFleetHot(numServers, numNodes),
		src:             src,
		pmuCP:           make([]float64, numNodes),
		pmuTP:           make([]float64, numNodes),
		pmuReduced:      make([]bool, numNodes),
		pmuDegraded:     make([]bool, numNodes),
		pmuLeaseTick:    make([]int, numNodes),
		pmuLastParentTP: make([]float64, numNodes),
		lastLeft:        map[int]leftRecord{},
		draining:        map[int]bool{},
		upStamp:         make([]int, numNodes),
		downStamp:       make([]int, numNodes),
		pipes:           make([]*reportPipe, numNodes),
		budgetPipes:     make([]*budgetPipe, numNodes),
		failedPMU:       make([]bool, numNodes),
		scratch:         make([]*allocScratch, numNodes),
		inFlight:        map[int]bool{},
		reserved:        map[int]float64{},
		pendingSleep:    map[int]bool{},
		evBuf:           make([][]telemetry.Event, numServers),
		effBuf:          make([]float64, numServers),
		needSlow:        make([]bool, numServers),
	}
	c.levels = make([][]*topo.Node, tree.Height+1)
	for _, n := range tree.Nodes {
		if !n.IsLeaf() {
			c.levels[n.Level] = append(c.levels[n.Level], n)
			c.scratch[n.ID] = newAllocScratch(len(n.Children))
		}
	}
	internal := numNodes - numServers
	sums := make([]float64, 2*internal)
	c.subCap, c.subFloor = sums[:internal], sums[internal:]
	priorities := 0
	for i, spec := range specs {
		if err := spec.Power.Validate(); err != nil {
			return nil, fmt.Errorf("core: server %d: %w", i, err)
		}
		if err := spec.Thermal.Validate(); err != nil {
			return nil, fmt.Errorf("core: server %d: %w", i, err)
		}
		for _, a := range spec.Apps {
			if a.Priority < 0 {
				return nil, fmt.Errorf("core: server %d: app %d has negative priority %d (0 is the most critical)", i, a.ID, a.Priority)
			}
			if a.Priority >= priorities {
				priorities = a.Priority + 1
			}
		}
		sm, err := workload.NewSmoother(cfg.Alpha)
		if err != nil {
			return nil, err
		}
		srv := &Server{
			Node:         tree.Servers[i],
			Power:        spec.Power,
			Thermal:      thermal.NewState(spec.Thermal),
			CircuitLimit: spec.CircuitLimit,
			hot:          c.hot,
			idx:          i,
			smoother:     sm,
			wakeAt:       -1,
		}
		srv.capWindow = cfg.ThermalWindow
		srv.capDecay = math.Exp(-spec.Thermal.C2 * cfg.ThermalWindow)
		srv.capDen = spec.Thermal.C1 * (1 - srv.capDecay)
		// The observed temperature starts at the truth (ambient); the
		// estimator's anchor starts there too, which grounds the safe-side
		// induction of sensing.go.
		srv.setTObs(srv.Thermal.T)
		if cfg.sensingEnabled() {
			srv.est = newEstimator(cfg.SensorWindow, srv.Thermal.T)
			c.sensorsArmed = true
		}
		for _, a := range spec.Apps {
			if a.NoiseLambda == 0 {
				a.NoiseLambda = cfg.NoiseLambda
			}
			if a.NoiseLambda > 0 {
				c.noisyDemand = true
			}
			srv.Apps.Add(a)
		}
		c.Servers = append(c.Servers, srv)
	}
	c.prioDemand = make([]float64, priorities)
	c.prioServed = make([]float64, priorities)
	c.prioSeen = make([]bool, priorities)
	c.shardPlan = planShards(tree, cfg.Shards, numServers)
	c.energy = newEnergyAcc(c)
	if cfg.Policy != nil {
		c.pol = cfg.Policy
		c.hot.pol = cfg.Policy
		c.pol.Bind(c)
		// Construction primed the cached hard caps through the built-in
		// Eq. 3 inversion (the policy was not bound yet); re-derive them
		// so tick 0 already allocates against policy caps. A fully
		// delegating policy recomputes the same pure function of TObs,
		// keeping the bytes identical.
		for _, s := range c.Servers {
			s.refreshHardCap()
		}
	}
	c.markAllDirty()
	c.recountLiveUpLinks()
	return c, nil
}

// Tick returns the number of completed ticks.
func (c *Controller) Tick() int { return c.tick }

// Step advances the simulation by one demand window Δ_D.
func (c *Controller) Step() {
	t := c.tick
	c.stamp++
	c.tickUp, c.tickDown, c.bothDir = 0, 0, false
	c.inStep = true

	c.wakeServers(t)
	c.completeTransfers(t)
	// Phase timing is wall-clock and strictly observational: with a nil
	// Phases observer the clock is never read and the path below is the
	// seed's, bit for bit.
	timed := c.Phases != nil
	var mark time.Time
	if timed {
		mark = time.Now()
	}
	c.observeDemand(t)
	if timed {
		mark = c.observePhase("observe", mark)
	}
	if t%c.Cfg.Eta1 == 0 {
		c.allocateSupplyWindow(t)
		if timed {
			c.observePhase("allocate", mark)
		}
	}
	c.restartOrphans(t)
	c.migrateDemand(t)
	if t%c.Cfg.Eta2 == 0 {
		c.consolidate(t)
	}
	if timed {
		mark = time.Now()
	}
	c.consumeAndHeat()
	if timed {
		c.observePhase("consume", mark)
	}
	c.accountEnergy(t)
	c.flushServiceStats()

	up := c.tickUp
	if !c.asyncEnabled() {
		// Synchronous reporting is structural: every live parent hears
		// every live child, every tick (the cached count is maintained
		// across PMU failures/repairs).
		up = c.liveUpLinks
	}
	c.Stats.MessagesUp += int64(up)
	c.Stats.MessagesDown += int64(c.tickDown)
	if c.bothDir {
		if c.Stats.MaxLinkMessagesPerTick < 2 {
			c.Stats.MaxLinkMessagesPerTick = 2
		}
	} else if (up > 0 || c.tickDown > 0) && c.Stats.MaxLinkMessagesPerTick < 1 {
		c.Stats.MaxLinkMessagesPerTick = 1
	}
	c.tick++
	c.inStep = false
	c.flushEvents()
}

// observePhase reports one phase's wall-clock duration since mark and
// returns the new mark.
func (c *Controller) observePhase(phase string, mark time.Time) time.Time {
	now := time.Now()
	c.Phases.ObservePhase(phase, now.Sub(mark).Seconds())
	return now
}

// Run executes n ticks.
func (c *Controller) Run(n int) {
	for i := 0; i < n; i++ {
		c.Step()
	}
}

// wakeServers completes pending wake-ups.
func (c *Controller) wakeServers(t int) {
	asleep := c.hot.asleep
	for i, s := range c.Servers {
		if asleep[i] && s.wakeAt >= 0 && s.wakeAt <= t {
			s.setAsleep(false)
			s.wakeAt = -1
			s.smoother.Reset()
			c.Stats.Wakes++
			if c.Sink != nil {
				c.publish(telemetry.Event{
					Tick: t, Kind: telemetry.KindSleepWake,
					Server: s.Node.ServerIndex, Cause: "wake",
					Watts: s.Power.Static,
				})
			}
		}
	}
}

// publishSleep records a server deactivating (consolidation or
// drain-to-sleep; failures publish their own event).
func (c *Controller) publishSleep(s *Server) {
	if c.Sink == nil {
		return
	}
	c.publish(telemetry.Event{
		Tick: c.tick, Kind: telemetry.KindSleepWake,
		Server: s.Node.ServerIndex, Cause: "sleep",
		Watts: s.Power.Static,
	})
}

// publishMigration mirrors an applied migration into the telemetry sink.
func (c *Controller) publishMigration(m Migration) {
	if c.Sink == nil {
		return
	}
	c.publish(telemetry.Event{
		Tick: m.Tick, Kind: telemetry.KindMigration,
		App: m.AppID, From: m.From, To: m.To, Hops: m.Hops,
		Cause: m.Cause.String(), Watts: m.Watts, Bytes: m.Bytes,
		Local: m.Local,
	})
}

// observeDemand draws each server's instantaneous demand, applies Eq. 4
// smoothing, and aggregates subtree demands up the tree. Each tree link
// carries exactly one upward report per tick.
func (c *Controller) observeDemand(int) {
	if len(c.shardPlan) > 1 && !c.noisyDemand {
		// Noise-free demand draws nothing from the shared random stream,
		// so the per-server phase parallelizes over rack-aligned shards.
		c.forEachShard(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.observeServer(i)
			}
		})
	} else {
		for i := range c.Servers {
			c.observeServer(i)
		}
	}
	if c.asyncEnabled() {
		c.wasAsync = true
		c.propagateReports()
		return
	}
	if c.wasAsync {
		// A loss window just closed: the PMU CPs hold pipe-derived
		// values the dirty bits know nothing about. Re-sum everything.
		c.markAllDirty()
		c.wasAsync = false
	}
	// Synchronous aggregation: bottom-up, level by level, visiting only
	// subtrees whose demand actually changed (state.go). A dead PMU
	// neither aggregates (its CP freezes at the last value it computed)
	// nor reports upward — its parent keeps acting on that frozen view,
	// the same "act on the previous value" semantics as a lost report.
	c.aggregate()
}

// observeServer updates one server's demand observation: the per-server
// body of observeDemand, shared by the sequential and sharded paths. It
// touches only per-server state (plus the parent rack's dirty bit).
func (c *Controller) observeServer(i int) {
	s := c.Servers[i]
	h := c.hot
	if h.asleep[i] {
		h.rawDemand[i] = 0
		s.setCP(0)
		return
	}
	dyn := s.Apps.Demand(c.src)
	raw := s.Power.Static + dyn + s.migCost
	s.migCost = 0
	if h.settled[i] && raw == h.rawDemand[i] {
		// The smoother is at an exact fixed point for this input: the
		// update would return the same CP bit for bit. Skip it.
		return
	}
	h.rawDemand[i] = raw
	prev := h.cp[i]
	wasInit := s.smoother.Initialized()
	cp := s.smoother.Update(raw)
	s.setCP(cp)
	// cp == α·raw + (1−α)·prev with prev the smoother's held value: if
	// the result equals that value, the next update with the same raw is
	// the same expression over the same bits — a true fixed point.
	h.settled[i] = wasInit && cp == prev
}

// demandOf returns the demand of any node as known to its parent — the
// delayed view under the asynchronous control plane.
func (c *Controller) demandOf(n *topo.Node) float64 {
	if n.IsLeaf() {
		return c.viewCP(c.Servers[n.ServerIndex])
	}
	return c.pmuCP[n.ID]
}

// consumeAndHeat settles each server's consumed power against its
// effective budget, accounts dropped demand, integrates temperature,
// and refreshes the observed temperature from the sensor (sensing.go).
func (c *Controller) consumeAndHeat() {
	if len(c.shardPlan) > 1 && !c.sensorsArmed {
		c.consumeAndHeatSharded()
		return
	}
	for _, s := range c.Servers {
		c.consumeServer(s)
	}
}

// consumeServer is the sequential per-server consume/heat body — the
// seed's semantics, kept for instrumented fleets and the single-shard
// path.
func (c *Controller) consumeServer(s *Server) {
	h, i := c.hot, s.idx
	if h.asleep[i] {
		h.consumed[i] = 0
		h.dropped[i] = 0
		s.Thermal.Advance(0, c.Cfg.ThermalDt)
		c.sense(s, 0)
		return
	}
	eff := s.EffectiveBudget(c.Cfg.ThermalWindow)
	if c.Sink != nil && eff < h.tp[i]-tolerance {
		// The hard constraint clamped the granted budget; report it
		// as a thermal throttle when Eq. 3 — computed, like every
		// control decision, from the observed temperature — is the
		// binding limit (rather than the circuit or rated-peak cap).
		if h.thermLim[i] <= eff+tolerance {
			c.publish(telemetry.Event{
				Tick: c.tick, Kind: telemetry.KindThermalThrottle,
				Server: s.Node.ServerIndex,
				Watts:  eff, Prev: h.tp[i], Demand: h.rawDemand[i],
			})
		}
	}
	consumed := c.settleQoS(s, eff)
	h.consumed[i] = consumed
	dropped := h.rawDemand[i] - consumed
	if dropped < 0 {
		dropped = 0
	}
	h.dropped[i] = dropped
	c.Stats.DroppedWattTicks += dropped
	if h.degraded[i] {
		c.Stats.DegradedTicks++
	}
	s.Thermal.Advance(consumed, c.Cfg.ThermalDt)
	c.sense(s, consumed)
}

// consumeAndHeatSharded is the fleet-scale consume/heat path: a parallel
// phase computes every per-server outcome (consumption, thermal
// integration, deferred events) over rack-aligned shards, then a
// sequential merge phase folds statistics and publishes events in
// server order — so the bits match the sequential path exactly for any
// shard count. Servers whose demand exceeds their budget (the QoS slow
// path, which publishes and accumulates globally) are deferred entirely
// to the merge phase.
func (c *Controller) consumeAndHeatSharded() {
	h := c.hot
	window, dt := c.Cfg.ThermalWindow, c.Cfg.ThermalDt
	t, sink := c.tick, c.Sink != nil
	c.forEachShard(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := c.Servers[i]
			c.needSlow[i] = false
			if h.asleep[i] {
				h.consumed[i] = 0
				h.dropped[i] = 0
				s.Thermal.Advance(0, dt)
				if v := s.Thermal.T; isFinite(v) {
					s.setTObs(v)
				}
				continue
			}
			eff := s.EffectiveBudget(window)
			if sink && eff < h.tp[i]-tolerance && h.thermLim[i] <= eff+tolerance {
				c.evBuf[i] = append(c.evBuf[i], telemetry.Event{
					Tick: t, Kind: telemetry.KindThermalThrottle,
					Server: s.Node.ServerIndex,
					Watts:  eff, Prev: h.tp[i], Demand: h.rawDemand[i],
				})
			}
			if h.rawDemand[i] <= eff {
				// QoS fast path: every app is served in full.
				h.consumed[i] = h.rawDemand[i]
				h.dropped[i] = 0
				s.Thermal.Advance(h.rawDemand[i], dt)
				if v := s.Thermal.T; isFinite(v) {
					s.setTObs(v)
				}
			} else {
				c.needSlow[i] = true
				c.effBuf[i] = eff
			}
		}
	})
	for i, s := range c.Servers {
		if len(c.evBuf[i]) > 0 {
			for _, e := range c.evBuf[i] {
				c.publish(e)
			}
			c.evBuf[i] = c.evBuf[i][:0]
		}
		if h.asleep[i] {
			continue
		}
		if c.needSlow[i] {
			consumed := c.settleQoS(s, c.effBuf[i])
			h.consumed[i] = consumed
			dropped := h.rawDemand[i] - consumed
			if dropped < 0 {
				dropped = 0
			}
			h.dropped[i] = dropped
			c.Stats.DroppedWattTicks += dropped
			if h.degraded[i] {
				c.Stats.DegradedTicks++
			}
			s.Thermal.Advance(consumed, dt)
			if v := s.Thermal.T; isFinite(v) {
				s.setTObs(v)
			}
			continue
		}
		// Fast-path bookkeeping (the body of settleQoS's served-in-full
		// branch). Dropped is exactly zero, so the shed-demand
		// accumulator is untouched — adding zero is the identity.
		for _, a := range s.Apps.Apps {
			c.recordService(a.Priority, a.LastDemand, a.LastDemand)
			c.recordClassService(a.ID, a.LastDemand)
		}
		if h.degraded[i] {
			c.Stats.DegradedTicks++
		}
	}
}

// TotalConsumed returns the servers' summed power draw this tick.
func (c *Controller) TotalConsumed() float64 {
	var sum float64
	for _, v := range c.hot.consumed {
		sum += v
	}
	return sum
}

// LevelImbalance returns the paper's Eqs. 7–9 for the given level:
// P_def(l) = max_i deficit, P_sur(l) = max_i surplus, and
// P_imb(l) = P_def(l) + min(P_def(l), P_sur(l)).
func (c *Controller) LevelImbalance(level int) (def, sur, imb float64) {
	if level == 0 {
		for _, s := range c.Servers {
			if d := s.Deficit(c.Cfg.ThermalWindow); d > def {
				def = d
			}
			if v := s.Surplus(c.Cfg.ThermalWindow); v > sur {
				sur = v
			}
		}
	} else if level <= c.Tree.Height {
		for _, n := range c.levels[level] {
			cp, tp := c.pmuCP[n.ID], c.pmuTP[n.ID]
			if d := cp - tp; d > def {
				def = d
			}
			if v := tp - cp; v > sur {
				sur = v
			}
		}
	}
	m := def
	if sur < m {
		m = sur
	}
	return def, sur, def + m
}

// AsleepCount returns how many servers are currently deactivated.
func (c *Controller) AsleepCount() int {
	n := 0
	for _, a := range c.hot.asleep {
		if a {
			n++
		}
	}
	return n
}
