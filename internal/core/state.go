package core

// Fleet-scale data layout (DESIGN.md §12). The per-tick hot path reads a
// handful of per-server scalars — demand, smoothed demand, budget,
// consumption, sleep state, observed temperature — for every server on
// every tick. At the paper's 18 servers the layout is irrelevant; at the
// ROADMAP's 100k-server north star, chasing a pointer per server per
// field is most of the tick. This file flattens those fields into
// struct-of-arrays slices owned by the controller (one contiguous
// float64 slice per field, indexed by topo server index), leaving the
// Server struct as a thin view: cold state plus an index into the slab.
//
// Three invariants make the layout change invisible to the control
// math:
//
//   - Every write to a hot field goes through a setter on Server, so
//     the slab is the single source of truth and derived caches (the
//     hard-cap cache, the aggregation dirty bits) can never go stale.
//   - All result-affecting floating-point accumulation stays in server
//     order regardless of shard count: parallel phases only ever write
//     per-server slots and the node slots of the racks they own, a
//     rack's sums run within its one shard, and every other
//     cross-server fold runs sequentially.
//   - The incremental aggregator re-sums a dirty PMU's direct children
//     in child order from zero — never applies partial-sum deltas — so
//     its bits match the full recompute exactly (float addition is not
//     associative; resummation sidesteps the question).

import (
	"math"
	"sync"

	"willow/internal/topo"
)

// fleetHot is the struct-of-arrays slab holding every per-server field
// the tick loop reads or writes unconditionally. Indexed by
// topo.Node.ServerIndex.
type fleetHot struct {
	rawDemand []float64 // this tick's instantaneous demand (0 asleep)
	cp        []float64 // smoothed demand, Eq. 4
	tp        []float64 // granted budget
	consumed  []float64 // power actually drawn this tick
	dropped   []float64 // demand shed this tick
	tobs      []float64 // observed (control) temperature
	// hardCap caches min(Eq. 3 limit at tobs, circuit, peak) over the
	// configured adjustment window, refreshed on every tobs write.
	hardCap  []float64
	thermLim []float64 // cached raw Eq. 3 limit at tobs (pre-min)
	static   []float64 // Power.Static, never written after New
	asleep   []bool
	degraded []bool
	// reduced marks servers whose budget the last supply event lowered
	// (unidirectional rule: such servers take no migrations).
	reduced []bool

	// settled marks servers whose smoother reached an exact fixed point:
	// feeding it the same raw demand again is guaranteed (bitwise) to
	// return the same CP, so the update can be skipped. Cleared by any
	// out-of-band smoother or CP mutation (migrations, resets).
	settled []bool

	// dirty is indexed by tree node ID: a PMU marked dirty must re-sum
	// its direct children at the next aggregation. Leaf slots are
	// unused.
	dirty []bool

	// pol mirrors Controller.pol for the throttle seam: refreshHardCap
	// is a Server method with no controller reference, so the bound
	// policy rides on the shared slab. nil keeps the built-in Eq. 3
	// inversion.
	pol Policy
}

func newFleetHot(servers, nodes int) *fleetHot {
	f := make([]float64, 9*servers)
	b := make([]bool, 4*servers)
	h := &fleetHot{
		rawDemand: f[0*servers : 1*servers],
		cp:        f[1*servers : 2*servers],
		tp:        f[2*servers : 3*servers],
		consumed:  f[3*servers : 4*servers],
		dropped:   f[4*servers : 5*servers],
		tobs:      f[5*servers : 6*servers],
		hardCap:   f[6*servers : 7*servers],
		thermLim:  f[7*servers : 8*servers],
		static:    f[8*servers : 9*servers],
		asleep:    b[0*servers : 1*servers],
		degraded:  b[1*servers : 2*servers],
		settled:   b[2*servers : 3*servers],
		reduced:   b[3*servers : 4*servers],
		dirty:     make([]bool, nodes),
	}
	return h
}

// --- Server accessors over the slab -----------------------------------

// RawDemand is this tick's instantaneous total power demand
// (static + dynamic + pending migration cost) while awake, 0 asleep.
func (s *Server) RawDemand() float64 { return s.hot.rawDemand[s.idx] }

// CP is the smoothed power demand (Eq. 4).
func (s *Server) CP() float64 { return s.hot.cp[s.idx] }

// TP is the power budget granted by the last supply allocation.
func (s *Server) TP() float64 { return s.hot.tp[s.idx] }

// Consumed is the power actually drawn this tick:
// min(RawDemand, effective budget).
func (s *Server) Consumed() float64 { return s.hot.consumed[s.idx] }

// Dropped is demand shed this tick because no budget or surplus could
// host it.
func (s *Server) Dropped() float64 { return s.hot.dropped[s.idx] }

// Asleep reports a consolidated (deactivated) server.
func (s *Server) Asleep() bool { return s.hot.asleep[s.idx] }

// TObs is the controller's working temperature: what every Eq. 3
// power-limit computation reads instead of the physical Thermal.T. It is
// the sensor reading filtered through the robust estimator when sensing
// is armed (sensing.go), the raw — possibly lying — reading when a
// sensor is attached without the estimator, and the physical truth
// bit-for-bit in the default fault-free setup.
func (s *Server) TObs() float64 { return s.hot.tobs[s.idx] }

// Degraded reports a server whose budget lease expired: it holds its
// last-known budget, decayed per supply window toward its safe floor
// (see degraded.go). Cleared by the next delivered budget directive.
func (s *Server) Degraded() bool { return s.hot.degraded[s.idx] }

func (s *Server) setRawDemand(v float64) { s.hot.rawDemand[s.idx] = v }
func (s *Server) setTP(v float64)        { s.hot.tp[s.idx] = v }
func (s *Server) setConsumed(v float64)  { s.hot.consumed[s.idx] = v }
func (s *Server) setAsleep(v bool)       { s.hot.asleep[s.idx] = v }
func (s *Server) setDegraded(v bool)     { s.hot.degraded[s.idx] = v }

// setCP writes the server's smoothed demand, marking the parent rack
// dirty when the value actually changed (the incremental aggregation
// trigger) and invalidating the smoother fixed point — every out-of-band
// CP mutation is paired with a smoother Bias/Reset, so a forced CP write
// always means the fixed-point argument no longer holds.
func (s *Server) setCP(v float64) {
	h := s.hot
	h.settled[s.idx] = false
	if h.cp[s.idx] != v {
		h.cp[s.idx] = v
		if p := s.Node.Parent; p != nil {
			h.dirty[p.ID] = true
		}
	}
}

// setTObs writes the observed temperature and refreshes the cached hard
// cap, which is a pure function of TObs and construction-time constants.
func (s *Server) setTObs(v float64) {
	s.hot.tobs[s.idx] = v
	s.refreshHardCap()
}

// refreshHardCap recomputes the cached hard cap from the current TObs.
// The thermal component is the per-server throttle seam: a bound policy
// may replace the Eq. 3 one-step inversion with its own cap (clamped
// non-negative); the built-in path and declining policies compute
// Eq3Limit.
func (s *Server) refreshHardCap() {
	var lim float64
	if p := s.hot.pol; p != nil {
		if v, ok := p.ThermalCap(s, s.hot.tobs[s.idx]); ok {
			if v < 0 || v != v { // negative or NaN
				v = 0
			}
			lim = v
		} else {
			lim = s.Eq3Limit(s.hot.tobs[s.idx])
		}
	} else {
		lim = s.Eq3Limit(s.hot.tobs[s.idx])
	}
	s.hot.thermLim[s.idx] = lim
	if s.CircuitLimit > 0 && s.CircuitLimit < lim {
		lim = s.CircuitLimit
	}
	if s.Power.Peak < lim {
		lim = s.Power.Peak
	}
	s.hot.hardCap[s.idx] = lim
}

// Eq3Limit returns the built-in Eq. 3 thermal power limit over the
// configured adjustment window at an arbitrary observed temperature —
// the safety envelope alternative throttle policies clamp to. The
// arithmetic replicates thermal.Model.PowerLimit with the decay factor
// e^(−c2·Δs) precomputed at construction — math.Exp is a pure function,
// so the cached factor is bit-identical to the inline call.
func (s *Server) Eq3Limit(tobs float64) float64 {
	m := s.Thermal.Model
	if s.capDen <= 0 {
		return math.Inf(1)
	}
	lim := m.C2 * (m.Limit - m.Ambient - (tobs-m.Ambient)*s.capDecay) / s.capDen
	if lim < 0 {
		lim = 0
	}
	return lim
}

// effBudget is min(tp, hard cap) for server i: the power it may actually
// draw this window, under Section IV-D's hard constraints. The tp < cap
// comparison, not the builtin min, decides which operand a NaN or a
// signed zero yields.
func (h *fleetHot) effBudget(i int) float64 {
	if tp := h.tp[i]; tp < h.hardCap[i] {
		return tp
	}
	return h.hardCap[i]
}

// deficit is Eq. 5, [cp − effBudget]+, for server i at demand cp: its
// own CP, or its parent's view of it (viewCP). An asleep server has
// none.
func (h *fleetHot) deficit(i int, cp float64) float64 {
	if h.asleep[i] {
		return 0
	}
	d := cp - h.effBudget(i)
	if d < 0 {
		return 0
	}
	return d
}

// surplus is Eq. 6, [effBudget − cp]+, for server i at demand cp.
func (h *fleetHot) surplus(i int, cp float64) float64 {
	if h.asleep[i] {
		return 0
	}
	d := h.effBudget(i) - cp
	if d < 0 {
		return 0
	}
	return d
}

// Index returns the server's fleet index (= Node.ServerIndex) — how
// policies address their per-server state slots.
func (s *Server) Index() int { return s.idx }

// --- Incremental supply/demand aggregation ----------------------------

// markAllDirty forces the next aggregation to re-sum every live PMU —
// the paper's per-Δ_D full recompute, which the incremental pass must
// match bit for bit. Used at construction and when a loss window closes
// and reporting turns synchronous again (SetLinkLoss): the PMU CPs then
// hold pipe-derived values the dirty bits know nothing about.
func (c *Controller) markAllDirty() {
	for _, n := range c.Tree.Nodes {
		if !n.IsLeaf() {
			c.hot.dirty[n.ID] = true
		}
	}
}

// aggregate recomputes PMU subtree demands bottom-up, level by level. A
// visited PMU re-sums all its children in child order from zero, so an
// incremental pass and a full recompute agree to the bit. Under
// synchronous reporting only PMUs whose direct children changed since
// the last pass are visited (dirty-subtree propagation), each child read
// directly — a prompt link is the no-pipe case. Under the asynchronous
// control plane every live PMU is visited and each child's report comes
// through its link pipe (pushReport, async.go), drawing loss in that
// same order. A dead PMU is skipped and stays dirty: its CP freezes
// until repair and its parent keeps acting on that frozen view, the same
// "act on the previous value" semantics as a lost report.
func (c *Controller) aggregate() {
	async := c.asyncEnabled()
	dirty := c.hot.dirty
	for level := 1; level <= c.Tree.Height; level++ {
		for _, n := range c.levels[level] {
			if c.failedPMU[n.ID] || !(async || dirty[n.ID]) {
				continue
			}
			dirty[n.ID] = false
			sum := 0.0
			for _, child := range n.Children {
				if async {
					sum += c.pushReport(child)
				} else {
					sum += c.demandOf(child)
				}
			}
			if sum != c.pmuCP[n.ID] {
				c.pmuCP[n.ID] = sum
				if n.Parent != nil {
					dirty[n.Parent.ID] = true
				}
			}
		}
	}
}

// --- Link-message accounting ------------------------------------------

// The paper's Property 3 bounds control traffic at two messages per link
// per Δ_D. The seed tracked it with two per-tick maps keyed by child
// node ID; at fleet scale the maps were most of the aggregation cost, so
// they become tick-stamped arrays plus counters. The upward report count
// is purely structural in both reporting modes — every live parent hears
// from every live child, every tick, whether the report arrives promptly
// or through a pipe — so it is a cached integer recounted only when a
// PMU fails or repairs.

// downTally counts one tick's downward directives: links is the number
// of distinct links that carried one, both records that some link also
// carried that tick's upward report. The sharded rack phase of the
// allocation pass keeps a tally per shard (each link is stamped by the
// one shard that owns its child), and the merge adds them up.
type downTally struct {
	links int
	both  bool
}

// add folds another tally into d.
func (d *downTally) add(o downTally) {
	d.links += o.links
	d.both = d.both || o.both
}

// countDown records a downward directive on the link between n and its
// parent into d. Directives within a tick batch into a single message;
// a link that also carries this tick's upward report carries both
// directions.
func (c *Controller) countDown(d *downTally, n *topo.Node) {
	if n.Parent != nil {
		c.stampDown(d, n.ID, c.upLinkLive(n))
	}
}

// stampDown counts a directive on the link above node id once per tick;
// upLive says the link also carries this tick's upward report.
func (c *Controller) stampDown(d *downTally, id int, upLive bool) {
	if c.downStamp[id] != c.stamp {
		c.downStamp[id] = c.stamp
		d.links++
		if upLive {
			d.both = true
		}
	}
}

// upLinkLive reports whether the link from n to its parent carries an
// upward report this tick: the parent must be alive and the child must
// be a server or a live PMU.
func (c *Controller) upLinkLive(n *topo.Node) bool {
	return !c.failedPMU[n.Parent.ID] && (n.IsLeaf() || !c.failedPMU[n.ID])
}

// recountLiveUpLinks recaches the per-tick upward report count.
// Called at construction and on every PMU failure/repair.
func (c *Controller) recountLiveUpLinks() {
	count := 0
	for level := 1; level <= c.Tree.Height; level++ {
		for _, n := range c.levels[level] {
			if c.failedPMU[n.ID] {
				continue
			}
			for _, child := range n.Children {
				if child.IsLeaf() || !c.failedPMU[child.ID] {
					count++
				}
			}
		}
	}
	c.liveUpLinks = count
}

// --- Sharded tick execution -------------------------------------------

// shardRange is a contiguous, rack-aligned span of server indices and
// the rack PMUs (level-1 nodes) whose servers it covers.
type shardRange struct {
	lo, hi int // [lo, hi)
	racks  []*topo.Node
}

// planShards splits the fleet into up to shards contiguous server
// ranges aligned to rack (level-1 subtree) boundaries. Rack alignment
// keeps every writer of a rack's dirty bit — and every per-node slot a
// rack's budget division writes — inside one shard, so the parallel
// phases need no synchronization; contiguity means replaying shards in
// shard order during the sequential merge phase is exactly server
// order, which is what makes results byte-identical for any shard
// count.
func planShards(tree *topo.Tree, shards int) []shardRange {
	// Under the BFS numbering the racks come in server order, each over
	// a contiguous span of servers.
	var racks []*topo.Node
	for _, n := range tree.Nodes {
		if n.Level == 1 {
			racks = append(racks, n)
		}
	}
	if len(racks) == 0 {
		return []shardRange{{0, tree.NumServers(), nil}}
	}
	shards = max(1, min(shards, len(racks)))
	out := make([]shardRange, 0, shards)
	lo := 0
	for shardsLeft := shards; shardsLeft > 0; shardsLeft-- {
		take := (len(racks) + shardsLeft - 1) / shardsLeft
		span := racks[:take]
		last := span[take-1].Children
		hi := last[len(last)-1].ServerIndex + 1
		out = append(out, shardRange{lo, hi, span})
		lo, racks = hi, racks[take:]
	}
	return out
}

// shardRunner forks a tick phase over the shard plan and joins it
// without allocating: shard 0 runs on the caller's goroutine, and every
// other shard on a goroutine started from a thunk built once, at
// construction. A phase must only touch per-server state within its
// range (plus per-server slots of shared slabs, the node slots of its
// racks and its own per-shard partials) — the race detector enforces
// this in the shard-invariance tests.
type shardRunner struct {
	plan   []shardRange
	thunks []func() // thunks[k-1] runs the current phase over plan[k]
	phase  func(shard, lo, hi int)
	wg     sync.WaitGroup
}

func newShardRunner(plan []shardRange) *shardRunner {
	r := &shardRunner{plan: plan}
	for k := 1; k < len(plan); k++ {
		lo, hi := plan[k].lo, plan[k].hi
		r.thunks = append(r.thunks, func() {
			r.phase(k, lo, hi)
			r.wg.Done()
		})
	}
	return r
}

// run calls phase(shard, lo, hi) for every shard of the plan and returns
// when all have finished.
func (r *shardRunner) run(phase func(shard, lo, hi int)) {
	if len(r.plan) == 1 {
		phase(0, r.plan[0].lo, r.plan[0].hi)
		return
	}
	r.phase = phase
	r.wg.Add(len(r.thunks))
	for _, th := range r.thunks {
		go th()
	}
	phase(0, r.plan[0].lo, r.plan[0].hi)
	r.wg.Wait()
	r.phase = nil
}

// Shards returns the number of ranges in the controller's rack-aligned
// shard plan (at most Config.Shards), which number Settled's shards.
func (c *Controller) Shards() int { return len(c.shards.plan) }
