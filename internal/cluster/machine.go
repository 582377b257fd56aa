package cluster

// Machine is the steppable form of a simulation run: everything Run
// builds, held as state, advanced one demand tick at a time. It exists
// so a long-lived control plane (internal/server) can drive the exact
// same simulation under wall-clock pacing, inject live mutations at
// tick boundaries, and serialize enough to resume after a restart —
// while the offline Run stays a thin loop over it, byte-identical to
// what it always produced.
//
// Determinism contract: a Machine stepped to completion produces the
// same event stream and Result as Run(cfg) with the same Config,
// because Run IS a Machine stepped to completion. Live mutations
// (ScaleDemand, InjectPlan) applied at tick boundaries keep the run
// deterministic as a function of (Config, mutation journal): replaying
// the same mutations at the same ticks reproduces the run bit for bit,
// which is what the daemon's snapshot/restore builds on.
//
// A Machine is NOT safe for concurrent use; callers that share one
// across goroutines (the daemon) serialize access with their own lock.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"willow/internal/chaos"
	"willow/internal/core"
	"willow/internal/dist"
	"willow/internal/metrics"
	"willow/internal/netsim"
	"willow/internal/policy"
	"willow/internal/power"
	"willow/internal/queueing"
	"willow/internal/sensor"
	"willow/internal/telemetry"
	"willow/internal/topo"
	"willow/internal/workload"
)

// Machine is one simulation run held open: construct with NewMachine,
// advance with Step until Done, read measurements with Result.
type Machine struct {
	cfg  Config
	tree *topo.Tree
	ctrl *core.Controller
	net  *netsim.Network

	n      int
	models []power.ServerModel
	// location maps app ID to hosting server for the IPC flows; nil
	// when the run has none.
	location map[int]int
	flows    []netsim.Flow
	// migSeen is how many of the controller's migrations the network
	// model and location map have taken in.
	migSeen int

	powerAcc, tempAcc []metrics.Welford
	imbAcc            []metrics.Welford
	asleep            []int
	latency           *queueing.Tracker
	res               *Result
	measured          int
	baseMeans         map[*workload.App]float64

	// The measurement, as the controller's settle observer (Settled and
	// Fold): measuring is the tick's past-warm-up flag, slots and
	// partials what Settled writes per server and per shard for Fold.
	measuring bool
	slots     []serverSlot
	partials  []shardPartial

	stepped int // ticks executed; the next Step runs tick `stepped`

	// queue holds the fault actions still to fire, in tick order and
	// in the order they were queued within a tick. Its first early
	// actions are for tick `stepped` and fire before that tick's body;
	// any others for that tick were injected at this boundary and fire
	// after it.
	queue []action
	early int

	// baseReport / baseBudget are the Core config's link-loss levels,
	// restored when a loss window closes.
	baseReport, baseBudget float64
	// sensorsAttached records that every server carries an instrument
	// (set by the first plan with a sensor fault, at build or live).
	sensorsAttached bool
}

// NewMachine builds the simulated data center of cfg without running
// it. The construction order — every Fork, every validation — is
// exactly Run's, so the machine's random streams match the offline
// simulator's bit for bit.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.Utilization <= 0 || cfg.Utilization > 1 {
		return nil, fmt.Errorf("cluster: utilization %v outside (0, 1]", cfg.Utilization)
	}
	if cfg.Ticks <= cfg.Warmup {
		return nil, fmt.Errorf("cluster: ticks %d must exceed warmup %d", cfg.Ticks, cfg.Warmup)
	}
	tree, err := topo.Build(cfg.Fanout)
	if err != nil {
		return nil, err
	}
	src := dist.NewSource(cfg.Seed)

	placement, err := workload.PlaceRandomMix(
		tree.NumServers(), cfg.AppsPerServer, cfg.Classes,
		1 /* unit watts; rescaled below */, cfg.Core.NoiseLambda, src.Fork())
	if err != nil {
		return nil, err
	}
	models := make([]power.ServerModel, tree.NumServers())
	for i := range models {
		models[i] = cfg.ServerPower
	}
	if cfg.PerServerPower != nil {
		if len(cfg.PerServerPower) != tree.NumServers() {
			return nil, fmt.Errorf("cluster: %d per-server power models for %d servers",
				len(cfg.PerServerPower), tree.NumServers())
		}
		copy(models, cfg.PerServerPower)
	}

	// Scale each server's workload to the target utilization of *its own*
	// dynamic range (they differ in a heterogeneous fleet).
	for i, set := range placement.Sets {
		target := cfg.Utilization * models[i].DynamicRange()
		total := set.MeanTotal()
		if total <= 0 {
			continue
		}
		for _, a := range set.Apps {
			a.Mean *= target / total
		}
	}

	// QoS classes: round-robin priorities over all applications.
	if cfg.PriorityClasses > 0 {
		for _, set := range placement.Sets {
			for _, a := range set.Apps {
				a.Priority = a.ID % cfg.PriorityClasses
			}
		}
	}

	// IPC flows between random application pairs, and the app → host
	// map they are routed by.
	var location map[int]int
	var flows []netsim.Flow
	if cfg.IPCFlows > 0 {
		location = map[int]int{}
		var appIDs []int
		for si, set := range placement.Sets {
			for _, a := range set.Apps {
				location[a.ID] = si
				appIDs = append(appIDs, a.ID)
			}
		}
		flowSrc := src.Fork()
		rate := cfg.IPCRate
		if rate <= 0 {
			rate = 5
		}
		for f := 0; f < cfg.IPCFlows && len(appIDs) >= 2; f++ {
			a := appIDs[flowSrc.Intn(len(appIDs))]
			b := appIDs[flowSrc.Intn(len(appIDs))]
			for b == a {
				b = appIDs[flowSrc.Intn(len(appIDs))]
			}
			flows = append(flows, netsim.Flow{AppA: a, AppB: b, Rate: rate})
		}
	}

	hot := map[int]bool{}
	for _, i := range cfg.HotServers {
		if i < 0 || i >= tree.NumServers() {
			return nil, fmt.Errorf("cluster: hot server index %d out of range", i)
		}
		hot[i] = true
	}
	specs := make([]core.ServerSpec, tree.NumServers())
	for i := range specs {
		tm := cfg.Thermal
		if hot[i] {
			tm.Ambient = cfg.HotAmbient
		}
		specs[i] = core.ServerSpec{
			Power:        models[i],
			Thermal:      tm,
			CircuitLimit: cfg.CircuitLimit,
			Apps:         placement.Sets[i].Apps,
		}
	}

	if cfg.Policy != "" && cfg.Core.Policy == nil {
		pol, err := policy.New(cfg.Policy)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		cfg.Core.Policy = pol
	}
	ctrl, err := core.New(tree, specs, cfg.Supply, cfg.Core, src.Fork())
	if err != nil {
		return nil, err
	}
	net, err := netsim.New(tree, cfg.Network)
	if err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:      cfg,
		tree:     tree,
		ctrl:     ctrl,
		net:      net,
		n:        tree.NumServers(),
		models:   models,
		location: location,
		flows:    flows,
		res:      &Result{Config: cfg},
	}
	m.baseReport, m.baseBudget = ctrl.Cfg.ReportLoss, ctrl.Cfg.BudgetLoss
	// The caller's sink is the controller's: with none attached, the
	// controller builds no events at all.
	ctrl.Sink = cfg.Sink
	ctrl.Settle = m

	m.powerAcc = make([]metrics.Welford, m.n)
	m.tempAcc = make([]metrics.Welford, m.n)
	m.imbAcc = make([]metrics.Welford, tree.Height+1)
	m.asleep = make([]int, m.n)
	m.slots = make([]serverSlot, m.n)
	m.partials = make([]shardPartial, ctrl.Shards())
	slo := cfg.SLO
	if slo.Service <= 0 {
		slo = queueing.SLO{Service: 1, Target: 10}
	}
	m.latency = queueing.NewTracker(slo)

	// Snapshot base demands so the intensity profile can scale them
	// in place each epoch without compounding.
	if cfg.DemandProfile != nil {
		m.baseMeans = make(map[*workload.App]float64)
		for _, set := range placement.Sets {
			for _, a := range set.Apps {
				m.baseMeans[a] = a.Mean
			}
		}
	}

	// Build-time faults are a plan injected before the first boundary
	// is set, so all of their tick-0 actions precede tick 0's body.
	if err := m.InjectPlan(cfg.Faults, 0); err != nil {
		return nil, err
	}
	m.early = m.due(0)
	return m, nil
}

// attachSensors gives every server an instrument with a private stream
// forked in server order from a source derived from — but independent
// of — the run seed, so sensor noise perturbs no simulation stream and
// the corruption sequence is identical whether or not the estimator is
// armed. Healthy instruments are bit-identical passthrough, so a lazy
// attachment (first live fault injection) changes nothing retroactively.
func (m *Machine) attachSensors() {
	if m.sensorsAttached {
		return
	}
	sensorSrc := dist.NewSource(m.cfg.Seed ^ sensorSeedSalt)
	for i := 0; i < m.n; i++ {
		m.ctrl.AttachSensor(i, sensor.New(sensorSrc.Fork()))
	}
	m.sensorsAttached = true
}

// serverSlot is what Settled records for one server, for Fold to add
// in server order.
type serverSlot struct {
	util     float64 // utilization, the server's switch traffic driver
	consumed float64
	latency  queueing.Sample
	awake    bool
}

// shardPartial is one shard's share of the tick's order-free
// reductions: maxima and a count. Settled writes it once per server, so
// padding keeps the next shard's partial off its cache line.
type shardPartial struct {
	maxTemp, maxObsTemp float64
	violations          int
	deficit, surplus    float64 // level-0 maxima, Eqs. 7–8
	_                   [64]byte
}

// tickBody is one demand tick Δ_D: the controller step plus every
// per-tick measurement.
//
// The measurements run inside the step as its settle observer: Settled
// writes per-server slots and per-shard partials on the settling shard,
// and Fold folds them beside the controller's serial tail. Maxima and
// counts fold in any order; the float sums whose bits depend on order —
// switch traffic, total energy, the latency tracker — fold in server
// order, so the result is the same for any shard count.
func (m *Machine) tickBody(now int) {
	cfg, ctrl, net := m.cfg, m.ctrl, m.net
	if m.baseMeans != nil {
		factor := cfg.DemandProfile.At(now / ctrl.Cfg.Eta1)
		if factor < 0 {
			factor = 0
		}
		for a, base := range m.baseMeans {
			a.Mean = base * factor
		}
	}
	m.measuring = now >= cfg.Warmup
	clear(m.partials)
	ctrl.Step()
	// Take in this tick's migrations in the order the controller applied
	// them.
	for _, mg := range ctrl.Stats.Migrations[m.migSeen:] {
		net.RecordMigration(mg.From, mg.To, mg.Bytes)
		if m.location != nil {
			m.location[mg.AppID] = mg.To
		}
	}
	m.migSeen = len(ctrl.Stats.Migrations)
	if len(m.flows) > 0 {
		net.RecordFlows(m.flows, m.location)
	}
	net.EndTick()
	if !m.measuring {
		return
	}
	m.measured++
	for level := 1; level <= m.tree.Height; level++ {
		_, _, imb := ctrl.LevelImbalance(level)
		m.imbAcc[level].Add(imb)
	}
}

// Settled and Fold make the Machine its controller's settle observer
// (core.SettleObserver); only ctrl.Step calls them. Settled measures s
// into its slot, its accumulators and the shard's partial.
func (m *Machine) Settled(shard int, s *core.Server) {
	p, i := &m.partials[shard], s.Index()
	sl := &m.slots[i]
	sl.util = s.Utilization()
	t := s.Thermal.T
	if t > p.maxTemp {
		p.maxTemp = t
	}
	if obs := s.TObs(); obs > p.maxObsTemp {
		p.maxObsTemp = obs
	}
	if t > s.Thermal.Model.Limit+1e-6 {
		p.violations++
	}
	if !m.measuring {
		return
	}
	consumed := s.Consumed()
	sl.consumed = consumed
	m.powerAcc[i].Add(consumed)
	m.tempAcc[i].Add(t)
	if d := s.Deficit(); d > p.deficit {
		p.deficit = d
	}
	if v := s.Surplus(); v > p.surplus {
		p.surplus = v
	}
	sl.awake = !s.Asleep()
	if !sl.awake {
		m.asleep[i]++
		return
	}
	servedDyn := consumed - s.Power.Static
	if servedDyn < 0 {
		servedDyn = 0
	}
	sl.latency = m.latency.Sample(sl.util, servedDyn, s.Dropped())
}

// Fold folds the tick's partials and slots into the Result, the switch
// traffic, the latency tracker and the level-0 imbalance. It touches
// only Machine state, so it runs beside the controller's serial tail.
func (m *Machine) Fold() {
	res, net := m.res, m.net
	var def, sur float64
	for k := range m.partials {
		p := &m.partials[k]
		if p.maxTemp > res.MaxTemp {
			res.MaxTemp = p.maxTemp
		}
		if p.maxObsTemp > res.MaxObsTemp {
			res.MaxObsTemp = p.maxObsTemp
		}
		res.LimitViolationTicks += p.violations
		if p.deficit > def {
			def = p.deficit
		}
		if p.surplus > sur {
			sur = p.surplus
		}
	}
	for i := range m.slots {
		sl := &m.slots[i]
		net.RecordServerTraffic(i, sl.util)
		if !m.measuring {
			continue
		}
		res.TotalEnergy += sl.consumed
		if sl.awake {
			m.latency.Add(sl.latency)
		}
	}
	if m.measuring {
		m.imbAcc[0].Add(core.Imbalance(def, sur))
	}
}

// Step advances the simulation by one demand tick t = NextTick(). It
// fires, in order: the actions queued for t before this boundary, the
// tick body, and the actions InjectPlan queued for t at this boundary,
// each group in the order it was queued. So build-time faults at tick
// 0 precede tick 0's body, and a live fault at relative tick 0 follows
// the body and is stamped t+1. It is a no-op once the run is Done.
func (m *Machine) Step() {
	if m.Done() {
		return
	}
	t := m.stepped
	m.fire(m.early)
	m.tickBody(t)
	m.fire(m.due(t))
	m.stepped++
	m.early = m.due(m.stepped)
}

// action is one queued fault: fire runs at the boundary of tick.
type action struct {
	tick int
	fire func()
}

// due counts the leading queued actions for tick t.
func (m *Machine) due(t int) int {
	n := 0
	for n < len(m.queue) && m.queue[n].tick == t {
		n++
	}
	return n
}

// fire runs the first n queued actions and drops them.
func (m *Machine) fire(n int) {
	for _, a := range m.queue[:n] {
		a.fire()
	}
	clear(m.queue[:n])
	m.queue = m.queue[n:]
}

// Done reports whether every configured tick has executed.
func (m *Machine) Done() bool { return m.stepped >= m.cfg.Ticks }

// NextTick is the tick the next Step will execute — the boundary at
// which live mutations land.
func (m *Machine) NextTick() int { return m.stepped }

// Config returns the run's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Controller exposes the live controller for read-only inspection
// (state endpoints). Callers must not mutate it between ticks.
func (m *Machine) Controller() *core.Controller { return m.ctrl }

// SetSink retargets the run's telemetry sink, the controller's own, from
// the next publication on. nil silences it (used while a snapshot
// replays), and the controller then builds no events at all.
func (m *Machine) SetSink(s telemetry.Sink) { m.ctrl.Sink = s }

// ScaleDemand multiplies the mean demand of every application currently
// hosted on the given server by factor (server -1 scales the whole
// fleet). With a DemandProfile configured, the profile's per-epoch
// baselines scale too, so the injection survives the next epoch rescale.
// Call only at a tick boundary (between Steps).
func (m *Machine) ScaleDemand(server int, factor float64) error {
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor < 0 {
		return fmt.Errorf("cluster: demand factor %v must be finite and non-negative", factor)
	}
	if server < -1 || server >= m.n {
		return fmt.Errorf("cluster: demand injection for server %d outside [-1, %d)", server, m.n)
	}
	scale := func(si int) {
		for _, a := range m.ctrl.Servers[si].Apps.Apps {
			a.Mean *= factor
			if m.baseMeans != nil {
				m.baseMeans[a] *= factor
			}
		}
	}
	if server >= 0 {
		scale(server)
		return nil
	}
	for si := 0; si < m.n; si++ {
		scale(si)
	}
	return nil
}

// InjectPlan validates an expanded chaos plan and queues it, every
// event offset by the given tick (normally NextTick). It is the one
// path for faults: NewMachine injects Config.Faults through it at
// offset 0. The offset must not precede NextTick, or the plan would
// rewrite ticks already run. A rejected plan queues nothing: a
// half-applied plan would be unreplayable. Events at or past the run
// horizon are dropped, since they could never fire. Sensor faults
// attach instruments on first use.
func (m *Machine) InjectPlan(plan chaos.Plan, offset int) error {
	if offset < m.stepped {
		return fmt.Errorf("cluster: chaos offset %d before next tick %d", offset, m.stepped)
	}
	ctrl, tree := m.ctrl, m.tree
	var acts []action
	at := func(t int, fire func()) {
		if t < m.cfg.Ticks-offset {
			acts = append(acts, action{offset + t, fire})
		}
	}
	for _, f := range plan.ServerFailures {
		if f.Server < 0 || f.Server >= m.n {
			return fmt.Errorf("cluster: failure event for server %d out of range", f.Server)
		}
		if f.Tick < 0 {
			return fmt.Errorf("cluster: failure event for server %d at tick %d before the run", f.Server, f.Tick)
		}
		at(f.Tick, func() { ctrl.FailServer(f.Server) })
		if f.RepairTick > f.Tick {
			at(f.RepairTick, func() { ctrl.RepairServer(f.Server) })
		}
	}
	for _, f := range plan.PMUFailures {
		if f.Node < 0 || f.Node >= len(tree.Nodes) || tree.Nodes[f.Node].IsLeaf() {
			return fmt.Errorf("cluster: PMU failure event for node %d is not an internal node", f.Node)
		}
		if f.Tick < 0 {
			return fmt.Errorf("cluster: PMU failure event for node %d at tick %d before the run", f.Node, f.Tick)
		}
		at(f.Tick, func() { ctrl.FailPMU(f.Node) })
		if f.RepairTick > f.Tick {
			at(f.RepairTick, func() { ctrl.RepairPMU(f.Node) })
		}
	}
	for _, w := range plan.LossWindows {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("cluster: bad loss window [%d, %d)", w.Start, w.End)
		}
		if !(w.ReportLoss >= 0 && w.ReportLoss < 1 && w.BudgetLoss >= 0 && w.BudgetLoss < 1) {
			return fmt.Errorf("cluster: loss window probabilities outside [0, 1): report=%v budget=%v",
				w.ReportLoss, w.BudgetLoss)
		}
		at(w.Start, func() { ctrl.SetLinkLoss(w.ReportLoss, w.BudgetLoss) })
		at(w.End, func() { ctrl.SetLinkLoss(m.baseReport, m.baseBudget) })
	}
	for _, f := range plan.SensorFaults {
		if f.Server < 0 || f.Server >= m.n {
			return fmt.Errorf("cluster: sensor fault for server %d out of range", f.Server)
		}
		if f.Start < 0 {
			return fmt.Errorf("cluster: sensor fault start %d before the run", f.Start)
		}
		if math.IsNaN(f.Magnitude) || math.IsInf(f.Magnitude, 0) {
			return fmt.Errorf("cluster: non-finite sensor fault magnitude %v", f.Magnitude)
		}
		fault := sensor.Fault{Mode: f.Mode, Magnitude: f.Magnitude}
		at(f.Start, func() { ctrl.SetSensorFault(f.Server, fault) })
		if f.End > f.Start {
			at(f.End, func() { ctrl.ClearSensorFault(f.Server) })
		}
	}
	if len(plan.SensorFaults) > 0 {
		m.attachSensors()
	}
	// A stable sort keeps each tick's actions in the order they were
	// queued, and leaves the early prefix where it is.
	m.queue = append(m.queue, acts...)
	slices.SortStableFunc(m.queue, func(a, b action) int { return cmp.Compare(a.tick, b.tick) })
	return nil
}

// Result computes the run's measurements from everything accumulated so
// far. It is safe to call mid-run (per-server means cover the measured
// window to date; zero measured ticks yield zeroed averages) and does
// not mutate the machine, so a live daemon can serve it repeatedly.
func (m *Machine) Result() *Result {
	res := *m.res
	res.MeanPower = make([]float64, m.n)
	res.MeanTemp = make([]float64, m.n)
	res.PowerSaved = make([]float64, m.n)
	res.AsleepFraction = make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		res.MeanPower[i] = m.powerAcc[i].Mean()
		res.MeanTemp[i] = m.tempAcc[i].Mean()
		if m.measured > 0 {
			res.AsleepFraction[i] = float64(m.asleep[i]) / float64(m.measured)
		}
		res.PowerSaved[i] = m.models[i].Static * res.AsleepFraction[i]
	}
	res.DemandMigrations = m.ctrl.Stats.DemandMigrations
	res.ConsolidationMigrations = m.ctrl.Stats.ConsolidationMigrations
	res.MigrationShare = m.net.MigrationTrafficShare()
	res.SwitchPower = m.net.LevelSwitchPower(1)
	res.SwitchMigrationTraffic = m.net.LevelMigrationTraffic(1)
	res.DroppedWattTicks = m.ctrl.Stats.DroppedWattTicks
	res.Stats = m.ctrl.Stats
	res.MeanFlowHops = m.net.MeanFlowHops()
	res.MeanImbalance = make([]float64, len(m.imbAcc))
	for level := range m.imbAcc {
		res.MeanImbalance[level] = m.imbAcc[level].Mean()
	}
	res.MeanStretch = m.latency.MeanStretch()
	res.StretchP95 = m.latency.StretchQuantile(0.95)
	res.SLOMissFraction = m.latency.SLOMissFraction()
	res.Energy = EnergyReport{
		TickSeconds: m.ctrl.Cfg.TickSeconds,
		Fleet:       m.ctrl.EnergyTotals(),
		Racks:       m.ctrl.RackEnergy(),
		Classes:     m.ctrl.ClassEnergy(),
	}
	return &res
}

// RunContext executes the configured simulation to completion, checking
// ctx between ticks: a cancelled context stops the run at the next tick
// boundary and returns ctx's error, leaving any caller-owned sink in a
// flushable state (nothing is written mid-event). This is the
// cancellation path the CLIs use so an interrupted run still closes its
// event stream cleanly instead of truncating it.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	for !m.Done() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.Step()
	}
	return m.Result(), nil
}
