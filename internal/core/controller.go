package core

import (
	"fmt"
	"math"
	"sync"
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
	// event is even constructed. Events reach the sink in decision order
	// as the tick makes them, not at its end.
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
	// pass so they do not receive migrations mid-drain (consolidate.go).
	draining map[int]bool

	// Link-message accounting (state.go): downStamp is tick-stamped by
	// child node ID; down tallies this step's downward directives;
	// liveUpLinks caches the structural report count.
	downStamp   []int
	stamp       int
	down        downTally
	liveUpLinks int

	// pipes delay upward reports per link when the asynchronous control
	// plane is enabled (see async.go); budgetPipes do the same for the
	// downward budget directives (see degraded.go). Indexed by child
	// node ID, created lazily.
	pipes       []*reportPipe
	budgetPipes []*budgetPipe

	// failedPMU marks crashed internal nodes (FailPMU): they neither
	// aggregate reports nor issue budgets, and migrations never cross
	// their span. All-false in the paper's fail-free regime. delivered
	// is the allocation pass's scratch, marking which nodes heard a
	// budget directive, and alloc what the pass's serial part and its
	// rack phase share (allocate.go).
	failedPMU      []bool
	failedPMUCount int
	delivered      []bool
	alloc          allocPass
	// internalNodes counts the PMUs, the prefix of the node IDs: server
	// j's node ID is internalNodes + j (topo.Node.ID).
	internalNodes int

	// levels caches the internal nodes per level (index = level) so the
	// per-tick aggregation does not rescan the whole tree; scratch holds
	// the preallocated allocation buffers of each PMU above the racks
	// (by node ID; racks divide in their shard's, scratch.go).
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

	// noisyDemand is set when any application draws Poisson demand
	// noise: the per-server demand loop then consumes the shared random
	// stream in server order and must stay sequential.
	noisyDemand bool

	// shards forks the parallel tick phases over the rack-aligned
	// partition of the fleet (state.go); the *Fn fields are those
	// phases, bound once so a tick allocates no method value. out holds
	// what each shard's phase leaves for its sequential merge.
	shards                                    *shardRunner
	observeFn, settleFn, scanFn, candidatesFn func(shard, lo, hi int)
	sumRacksFn, allocateRacksFn               func(shard, lo, hi int)
	out                                       []shardOut

	// ws is the working surpluses placement draws on (migrate.go),
	// reused across calls.
	ws surplusSet

	// energy is the per-tick energy accounting state (energy.go):
	// always on and allocation-free, booked per server as it settles and
	// folded fleet-wide sequentially in server order.
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

	// Settle, when non-nil, hears each server as it settles and folds
	// once a tick (SettleObserver). foldFn, bound once at two or more
	// shards, runs that fold on a goroutine; Step waits on folding.
	Settle  SettleObserver
	foldFn  func()
	folding sync.WaitGroup
}

// PhaseObserver consumes wall-clock tick-phase latencies (see
// Controller.Phases). Implementations must not touch simulation state.
type PhaseObserver interface {
	ObservePhase(phase string, seconds float64)
}

// SettleObserver measures each server where the settle leaves it (see
// Controller.Settle): nothing in Step writes a server's temperatures,
// consumption, drop, sleep flag or Eqs. 5/6 after it settles.
type SettleObserver interface {
	// Settled runs on the goroutine that settled s, in server order
	// within the shard, and may write only s's slots and the shard's
	// partials.
	Settled(shard int, s *Server)
	// Fold runs once a tick after the settle and before Step returns:
	// beside the controller's serial tail (consume merge, energy fold,
	// service stats) on a goroutine of its own, or inline at one shard.
	// It must not touch the controller.
	Fold()
}

// The tick phases a PhaseObserver hears, by name. Everything else a
// Step does — wake-ups, transfer landings and the fleet energy fold —
// is untimed.
const (
	// PhaseObserve is demand observation: each server's Eq. 4 update
	// (sharded when demand is noise-free) and the aggregation up the
	// tree.
	PhaseObserve = "observe"
	// PhaseAllocate is the supply allocation pass, every η1 ticks: the
	// division above the racks, the sharded rack phase and its merge.
	PhaseAllocate = "allocate"
	// PhaseMigrate is the demand side: orphan restarts, demand
	// migration (the sharded deficit scan, then placement) and, every
	// η2 ticks, consolidation.
	PhaseMigrate = "migrate"
	// PhaseConsume is consumeAndHeat: the sharded settle of every
	// server's consumption, QoS shedding, heating, sensing and energy,
	// with a SettleObserver's Settled after each server, then the
	// sequential merge that publishes the shards' events and folds their
	// service records, drops and counters. The wait for the observer's
	// Fold comes after the energy fold, so it is untimed.
	PhaseConsume = "consume"
)

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
		pmuLeaseTick:    make([]int, numNodes),
		pmuLastParentTP: make([]float64, numNodes),
		lastLeft:        map[int]leftRecord{},
		draining:        map[int]bool{},
		downStamp:       make([]int, numNodes),
		pipes:           make([]*reportPipe, numNodes),
		budgetPipes:     make([]*budgetPipe, numNodes),
		scratch:         make([]*allocScratch, numNodes),
		inFlight:        map[int]bool{},
		reserved:        map[int]float64{},
		pendingSleep:    map[int]bool{},
	}
	flags := make([]bool, 4*numNodes+numServers)
	c.pmuReduced, c.pmuDegraded = flags[:numNodes], flags[numNodes:2*numNodes]
	c.failedPMU, c.delivered = flags[2*numNodes:3*numNodes], flags[3*numNodes:4*numNodes]
	c.alloc.lost = flags[4*numNodes:]
	c.levels = make([][]*topo.Node, tree.Height+1)
	for _, n := range tree.Nodes {
		if !n.IsLeaf() {
			c.levels[n.Level] = append(c.levels[n.Level], n)
		}
		if n.Level >= 2 {
			c.scratch[n.ID] = newAllocScratch(len(n.Children))
		}
	}
	internal := numNodes - numServers
	c.internalNodes = internal
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
			if a.Priority > math.MaxInt32 {
				return nil, fmt.Errorf("core: server %d: app %d priority %d exceeds %d", i, a.ID, a.Priority, math.MaxInt32)
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
		c.hot.static[i] = spec.Power.Static
		srv.capDecay = math.Exp(-spec.Thermal.C2 * cfg.ThermalWindow)
		srv.capDen = spec.Thermal.C1 * (1 - srv.capDecay)
		// The observed temperature starts at the truth (ambient); the
		// estimator's anchor starts there too, which grounds the safe-side
		// induction of sensing.go.
		srv.setTObs(srv.Thermal.T)
		if cfg.sensingEnabled() {
			srv.est = newEstimator(cfg.SensorWindow, srv.Thermal.T)
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
	c.shards = newShardRunner(planShards(tree, cfg.Shards))
	c.observeFn = func(_, lo, hi int) { c.observeShard(lo, hi) }
	c.settleFn = c.settleShard
	c.scanFn = c.scanShard
	c.sumRacksFn = c.sumRacks
	c.allocateRacksFn = c.allocateRacks
	c.candidatesFn = c.candidateShard
	if len(c.shards.plan) > 1 {
		c.foldFn = func() { c.Settle.Fold(); c.folding.Done() }
	}
	// Each shard's service records start with room for every application
	// it hosts, so a tick without migrations across shards allocates none.
	c.out = make([]shardOut, len(c.shards.plan))
	for k, sh := range c.shards.plan {
		apps := 0
		for _, s := range c.Servers[sh.lo:sh.hi] {
			apps += s.Apps.Len()
		}
		c.out[k].recs = make([]serviceRec, 0, apps)
		widest := 0
		for _, r := range sh.racks {
			widest = max(widest, len(r.Children))
		}
		c.out[k].rack = newAllocScratch(widest)
	}
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
	c.down = downTally{}

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
		mark = c.observePhase(PhaseObserve, mark)
	}
	if t%c.Cfg.Eta1 == 0 {
		c.allocateResilient(t, c.resilienceEnabled())
		if timed {
			mark = c.observePhase(PhaseAllocate, mark)
		}
	}
	c.restartOrphans(t)
	c.migrateDemand(t)
	if t%c.Cfg.Eta2 == 0 {
		c.consolidate(t)
	}
	if timed {
		mark = c.observePhase(PhaseMigrate, mark)
	}
	c.consumeAndHeat()
	if timed {
		c.observePhase(PhaseConsume, mark)
	}
	c.accountEnergy(t)
	c.flushServiceStats()
	c.folding.Wait()

	// Reporting is structural: every live parent hears every live child,
	// every tick (the cached count is maintained across PMU
	// failures/repairs).
	up := c.liveUpLinks
	c.Stats.MessagesUp += int64(up)
	c.Stats.MessagesDown += int64(c.down.links)
	if c.down.both {
		if c.Stats.MaxLinkMessagesPerTick < 2 {
			c.Stats.MaxLinkMessagesPerTick = 2
		}
	} else if (up > 0 || c.down.links > 0) && c.Stats.MaxLinkMessagesPerTick < 1 {
		c.Stats.MaxLinkMessagesPerTick = 1
	}
	c.tick++
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

// publish hands one telemetry event to the sink, if one is attached.
func (c *Controller) publish(e telemetry.Event) {
	if c.Sink != nil {
		c.Sink.Publish(e)
	}
}

// publishAll hands buffered events to the sink in order.
func (c *Controller) publishAll(events []telemetry.Event) {
	if c.Sink == nil {
		return
	}
	for _, e := range events {
		c.Sink.Publish(e)
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
	if c.noisyDemand {
		// Noisy demand draws from the shared random stream, which must
		// be consumed in server order.
		c.observeShard(0, len(c.Servers))
	} else {
		// Noise-free demand draws nothing from the shared random stream,
		// so the per-server phase parallelizes over rack-aligned shards.
		c.shards.run(c.observeFn)
	}
	c.aggregate()
}

// observeShard observes the servers [lo, hi) in order.
func (c *Controller) observeShard(lo, hi int) {
	for i := lo; i < hi; i++ {
		c.observeServer(i)
	}
}

// observeServer updates one server's demand observation: the per-server
// body of observeDemand. It touches only per-server state (plus the
// parent rack's dirty bit).
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
// delayed view under the asynchronous control plane, a server's own CP
// off the slab under synchronous reporting.
func (c *Controller) demandOf(n *topo.Node) float64 {
	if !n.IsLeaf() {
		return c.pmuCP[n.ID]
	}
	return c.serverDemand(n.ServerIndex)
}

// serverDemand is demandOf for server j.
func (c *Controller) serverDemand(j int) float64 {
	if !c.asyncEnabled() {
		return c.hot.cp[j]
	}
	return c.viewCP(c.Servers[j])
}

// consumeAndHeat settles each server's consumed power against its
// effective budget, sheds what does not fit (qos.go), integrates
// temperature, and refreshes the observed temperature from the sensor
// (sensing.go). A parallel phase over rack-aligned shards runs
// settleServer for every server; a sequential merge then folds what each
// shard left, shard by shard. Shards are contiguous and in server order,
// so every fold below adds the same values in the same order for any
// shard count. The settle observer's Fold starts once the settle joins.
func (c *Controller) consumeAndHeat() {
	c.shards.run(c.settleFn)
	if c.Settle != nil && len(c.shards.plan) == 1 {
		c.Settle.Fold()
	} else if c.Settle != nil {
		c.folding.Add(1)
		go c.foldFn()
	}
	st := &c.Stats
	for k := range c.out {
		out := &c.out[k]
		// Each server buffered its events in decision order — throttle,
		// then QoS, then sensor — and the shards drain in server order.
		c.publishAll(out.events)
		// One record per application, in the order settleServer booked
		// them: app order for a server served in full or browned out,
		// priority-sorted order for one that shed.
		for _, r := range out.recs {
			c.foldService(r)
		}
		// Only servers that shed left a drop. A server served in full drops
		// exactly zero, and adding zero to this non-negative accumulator is
		// the identity.
		for _, d := range out.drops {
			st.DroppedWattTicks += d
		}
		// Integer counters: each shard summed its own share.
		st.DegradedTicks += out.degradedTicks
		st.DegradedAppTicks += out.degradedApps
		st.ShutdownAppTicks += out.shutdownApps
		st.SensorRejected += out.rejected
		st.SensorUnhealthy += out.unhealthy
		st.SensorGuardTicks += out.guardTicks
	}
}

// settleShard is consumeAndHeat's parallel phase over servers [lo, hi)
// of the given shard: it settles each in order into the shard's output,
// and hands each to the settle observer, if any, while it is in cache.
func (c *Controller) settleShard(shard, lo, hi int) {
	out := &c.out[shard]
	out.reset()
	// The records are the hottest append (one per application per tick),
	// so they grow in a local.
	recs, obs := out.recs, c.Settle
	for _, s := range c.Servers[lo:hi] {
		recs = c.settleServer(out, recs, s)
		if obs != nil {
			obs.Settled(shard, s)
		}
	}
	out.recs = recs
}

// settleServer is the consume phase's per-server body, for a server
// asleep, served in full, shedding, sensed or estimator-armed alike.
// Everything it would publish or add into shared state — events, one
// service record per application (appended to recs), the drop of a
// server that shed, and integer counters — goes into its shard's output
// for the merge. Nothing else it touches is shared: each instrument
// draws from its own forked stream, estimate, setTObs and
// refreshHardCap write only s's slots, and the stateful policies keep
// their ThermalCap state per server behind a per-server tick guard.
func (c *Controller) settleServer(out *shardOut, recs []serviceRec, s *Server) []serviceRec {
	h, i := c.hot, s.idx
	consumed, dropped := 0.0, 0.0
	if !h.asleep[i] {
		eff := h.effBudget(i)
		c.throttle(out, s, eff)
		if raw := h.rawDemand[i]; raw <= eff {
			consumed = raw
			for _, a := range s.Apps.Apps {
				recs = append(recs, serviceRec{
					demand: a.LastDemand, served: a.LastDemand,
					priority: int32(a.Priority), class: c.energy.classIndex(a.ID),
				})
			}
		} else {
			consumed, recs = c.settleQoS(out, recs, s, eff)
			if dropped = raw - consumed; dropped < 0 {
				dropped = 0
			}
			out.drops = append(out.drops, dropped)
		}
		if h.degraded[i] {
			out.degradedTicks++
		}
	}
	h.consumed[i] = consumed
	h.dropped[i] = dropped
	s.Thermal.Advance(consumed, c.Cfg.ThermalDt)
	c.sense(out, s, consumed)
	c.accountServer(s)
	return recs
}

// shardOut is what one shard's phase leaves for its sequential merge,
// in server order: the settle's for consumeAndHeat's, the allocation
// pass's rack phase's for mergeAllocation's, the deficit scan's items
// for migrateDemand, the candidate scan's servers for consolidate.
// services is settleQoS's reused scratch.
type shardOut struct {
	events     []telemetry.Event
	recs       []serviceRec
	drops      []float64
	services   []appService
	items      []item
	candidates []*Server

	degradedTicks, degradedApps, shutdownApps, guardTicks int64
	rejected, unhealthy                                   int

	// The allocation pass: the buffers the shard's racks divide in,
	// its downward directives, its lease expiries, and where its
	// lease-aging events start in events.
	rack          *allocScratch
	down          downTally
	leaseExpiries int
	aged          int

	// Every settled server writes its shard's output, so the padding
	// keeps the next shard's off these cache lines.
	_ [64]byte
}

// reset empties the output for a new settle, keeping its buffers.
func (o *shardOut) reset() {
	*o = shardOut{events: o.events[:0], recs: o.recs[:0], drops: o.drops[:0], services: o.services, items: o.items, candidates: o.candidates, rack: o.rack}
}

// resetAlloc empties the output for a new allocation pass.
func (o *shardOut) resetAlloc() {
	o.events, o.down, o.leaseExpiries, o.aged = o.events[:0], downTally{}, 0, 0
}

// throttle buffers the thermal throttle event of an awake server
// settling at effective budget eff, if it publishes one: a sink is
// attached, the hard constraint clamped the granted budget, and Eq. 3 —
// computed, like every control decision, from the observed temperature
// — is the binding limit (rather than the circuit or rated-peak cap).
func (c *Controller) throttle(out *shardOut, s *Server, eff float64) {
	h, i := c.hot, s.idx
	if c.Sink != nil && eff < h.tp[i]-tolerance && h.thermLim[i] <= eff+tolerance {
		out.events = append(out.events, telemetry.Event{
			Tick: c.tick, Kind: telemetry.KindThermalThrottle,
			Server: s.Node.ServerIndex,
			Watts:  eff, Prev: h.tp[i], Demand: h.rawDemand[i],
		})
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
			if d := s.Deficit(); d > def {
				def = d
			}
			if v := s.Surplus(); v > sur {
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
	return def, sur, Imbalance(def, sur)
}

// Imbalance is Eq. 9, P_imb = P_def + min(P_def, P_sur), from a level's
// maximum deficit and surplus.
func Imbalance(def, sur float64) float64 {
	m := def
	if sur < m {
		m = sur
	}
	return def + m
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
