package core

import (
	"slices"

	"willow/internal/topo"
	"willow/internal/workload"
)

// item is one migratable unit of demand: an application peeled off a
// deficit server.
type item struct {
	app *workload.App
	src *Server
}

// assignment is a planned migration.
type assignment struct {
	it item
	to *Server
}

// migrateDemand is the per-tick demand-side adaptation of Section IV-E.
//
// Servers whose smoothed demand exceeds their effective budget by more
// than the P_min margin peel applications (largest first) until the
// remainder would leave at least P_min of surplus. Peeled items are
// placed bottom-up: sibling surpluses first (local migrations), then
// progressively wider subtrees (non-local), never into squeezed
// ("reduced") subtrees, and only onto servers that retain the P_min
// margin after receiving. Demand that fits nowhere triggers, in order:
// draining the lightest server so it can sleep (freeing its static
// power), waking a sleeping server, and finally shedding (dropping) the
// excess.
func (c *Controller) migrateDemand(t int) {
	// The deficit scan runs sharded; joining the shards' items in shard
	// order, onto the first shard's buffer, gives them in server order.
	c.shards.run(c.scanFn)
	items := c.out[0].items
	for k := 1; k < len(c.out); k++ {
		items = append(items, c.out[k].items...)
	}
	c.out[0].items = items
	if len(items) == 0 {
		return
	}

	ws := c.workingSurpluses()
	plan, unplaced := c.planPlacement(items, ws, false, false)
	c.applyAssignments(plan, CauseDemand, t)

	if len(unplaced) > 0 {
		unplaced = c.drainToSleep(unplaced, t)
	}
	if len(unplaced) > 0 {
		c.tryWake(t)
	}
	// Anything still unplaced stays on its source and is shed when the
	// server settles against its budget (Section IV-E: excess demand is
	// simply dropped).
}

// scanShard is migrateDemand's deficit scan over servers [lo, hi): each
// server whose migration trigger fires peels applications, largest
// first, into the shard's item buffer, in server order. It reads shared
// state only (the transfer list, the in-flight set) and calls the
// PeelTarget seam, which may touch only the passed server's slots.
func (c *Controller) scanShard(shard, lo, hi int) {
	out := &c.out[shard]
	items := out.items[:0]
	// Eq. 5 is judged on the CP the parent sees: with synchronous
	// reporting the server's own, off the slab; on the asynchronous plane
	// the one its report pipe delivered.
	async, h := c.asyncEnabled(), c.hot
	for i := lo; i < hi; i++ {
		s := c.Servers[i]
		cp := h.cp[i]
		if async {
			cp = c.viewCP(s)
		}
		def := h.deficit(i, cp) - c.outboundFor(s)
		// Migration-trigger seam (policy.go): the built-in rule peels
		// when the deficit exceeds P_min, targeting deficit + P_min.
		target := c.peelTarget(s, def)
		if target <= 0 {
			continue
		}
		var peeled float64
		for _, a := range s.Apps.SortedByMeanDesc() {
			if peeled >= target {
				break
			}
			if c.inFlight[a.ID] {
				continue // already on its way somewhere
			}
			items = append(items, item{app: a, src: s})
			peeled += a.Mean
		}
	}
	out.items = items
}

// surplusSet is the working surplus placement draws on, by server
// index: watts[i] is what server i can still absorb, and only a server
// marked in cand is a candidate target at all. Placement lowers watts
// as it places. One set is reused across calls; each fill starts it
// afresh.
type surplusSet struct {
	watts []float64
	cand  []bool
}

// reset returns the set with no candidate, sized for n servers.
func (ws *surplusSet) reset(n int) *surplusSet {
	if len(ws.cand) != n {
		ws.watts, ws.cand = make([]float64, n), make([]bool, n)
	} else {
		clear(ws.cand)
	}
	return ws
}

// add makes server i a candidate that can absorb v watts.
func (ws *surplusSet) add(i int, v float64) {
	ws.watts[i], ws.cand[i] = v, true
}

// workingSurpluses returns, per eligible receiving server, the watts it
// can absorb while keeping the P_min margin.
func (c *Controller) workingSurpluses() *surplusSet {
	ws := c.ws.reset(len(c.Servers))
	for i, s := range c.Servers {
		if !c.receiverEligible(s) {
			continue
		}
		v := c.viewSurplus(s) - c.Cfg.PMin - c.reservedFor(s)
		if v > tolerance {
			ws.add(i, v)
		}
	}
	return ws
}

// receiverEligible reports whether a server may be a migration target at
// all: awake, not being drained, not squeezed by the last supply event
// (the unidirectional rule), and not stranded under a dead PMU (no
// coordinator can direct workload into such a span).
func (c *Controller) receiverEligible(s *Server) bool {
	if c.failedPMUCount > 0 && c.underDeadPMU(s.Node) {
		return false
	}
	return !s.Asleep() && !c.draining[s.Node.ServerIndex] && !c.hot.reduced[s.idx]
}

// planPlacement assigns items to servers level by level: every item first
// tries the surpluses under its level-1 parent (local), and items that
// remain escalate one level at a time. Within a level, candidate targets
// are ordered by ascending working surplus — the finite-bin equivalent of
// FFDLR's repack step ("we try to run every server at full utilization"),
// so large surpluses stay empty and can be deactivated later. ws is
// lowered as items are placed.
// When ignoreReduced is true the unidirectional rule is bypassed — used
// only by the drain-to-sleep emergency path, where every subtree looks
// squeezed by definition (the whole facility just lost supply).
//
// Ping-pong control (Section IV-E's second pitfall) is enforced
// structurally: an application is never sent back to a node it left
// within the last PingPongWindow (Δf) ticks, so the paper's observed
// "no ping-pong migrations for at least Δf" holds by construction.
// preferEfficient makes receiver choice efficiency-aware: among fitting
// candidates, servers with the lowest idle-power-per-capacity host the
// load, so consolidation in a heterogeneous fleet packs onto wimpy nodes
// and lets power-hungry-at-idle servers sleep. For homogeneous fleets the
// preference is a no-op and the FFDLR-repack best-fit rule decides.
func (c *Controller) planPlacement(items []item, ws *surplusSet, ignoreReduced, preferEfficient bool) ([]assignment, []item) {
	slices.SortStableFunc(items, func(a, b item) int {
		switch {
		case a.app.Mean != b.app.Mean:
			if a.app.Mean > b.app.Mean {
				return -1
			}
			return 1
		case a.app.ID != b.app.ID:
			if a.app.ID < b.app.ID {
				return -1
			}
			return 1
		default:
			return 0
		}
	})

	maxLevel := c.Tree.Height
	if c.Cfg.LocalOnly {
		maxLevel = 1
	}
	var plan []assignment
	pending := items
	for level := 1; level <= maxLevel && len(pending) > 0; level++ {
		var next []item
		for _, it := range pending {
			if c.failedPMUCount > 0 && level > c.reachLimit(it.src.Node) {
				// Escalation is capped at the highest coordinator the
				// source can still reach through alive PMUs.
				next = append(next, it)
				continue
			}
			scope := ancestorAt(it.src.Node, level)
			exclude := ancestorAt(it.src.Node, level-1)
			to := c.pickTarget(it, scope, exclude, ws, ignoreReduced, preferEfficient)
			if to == nil {
				next = append(next, it)
				continue
			}
			ws.watts[to.Node.ServerIndex] -= it.app.Mean
			plan = append(plan, assignment{it: it, to: to})
		}
		pending = next
	}
	return plan, pending
}

// ancestorAt returns n's ancestor at the given level (n itself at its own
// level).
func ancestorAt(n *topo.Node, level int) *topo.Node {
	for n != nil && n.Level < level {
		n = n.Parent
	}
	return n
}

// pickTarget selects the receiving server for it under scope, skipping
// the already-searched exclude subtree and any squeezed subtree between
// target and scope. Among fitting candidates it picks the smallest
// adequate surplus (ties by server index, for determinism).
func (c *Controller) pickTarget(it item, scope, exclude *topo.Node, ws *surplusSet, ignoreReduced, preferEfficient bool) *Server {
	var best *Server
	bestWS := 0.0
	bestEff := 0.0
	efficiency := func(s *Server) float64 {
		dyn := s.Power.DynamicRange()
		if dyn <= 0 {
			return 1e18
		}
		return s.Power.Static / dyn
	}
	// The ping-pong record depends only on the application: look it up
	// once, and skip the one server it names while inside Δf.
	pingPong := -1
	if rec, ok := c.lastLeft[it.app.ID]; ok && c.tick-rec.tick <= c.Cfg.PingPongWindow {
		pingPong = rec.from
	}
	var walk func(n *topo.Node)
	walk = func(n *topo.Node) {
		if n == exclude {
			return
		}
		if !n.IsLeaf() && c.failedPMU[n.ID] {
			// No coordinator: nothing can be placed into a dead span.
			return
		}
		if !ignoreReduced && !n.IsLeaf() && n != scope && c.pmuReduced[n.ID] {
			// Unidirectional rule: no migrations into a squeezed subtree.
			return
		}
		if n.IsLeaf() {
			s := c.Servers[n.ServerIndex]
			if s == it.src || n.ServerIndex == pingPong {
				return
			}
			v := ws.watts[n.ServerIndex]
			if !ws.cand[n.ServerIndex] || v+tolerance < it.app.Mean {
				return
			}
			better := false
			switch {
			case best == nil:
				better = true
			case preferEfficient && efficiency(s) != bestEff:
				better = efficiency(s) < bestEff
			case v != bestWS:
				better = v < bestWS
			default:
				better = n.ServerIndex < best.Node.ServerIndex
			}
			if better {
				best, bestWS, bestEff = s, v, efficiency(s)
			}
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(scope)
	return best
}

// applyAssignments executes planned migrations: moves the applications,
// shifts smoothed demand, charges migration cost to both endpoints,
// performs ping-pong accounting, and notifies the observer.
func (c *Controller) applyAssignments(plan []assignment, cause Cause, t int) {
	for _, a := range plan {
		src, dst := a.it.src, a.to
		app := a.it.app
		if src.Apps.ByID(app.ID) == nil {
			continue // already gone (defensive; plans are built per tick)
		}
		if c.Cfg.MigrationLatency > 0 {
			// Non-instantaneous transfer: the decision is made (and
			// accounted) now; the application lands later.
			c.startTransfer(app.ID, src, dst, t)
		} else {
			src.Apps.Remove(app.ID)
			dst.Apps.Add(app)
			// Demand follows the application immediately.
			cp := src.CP() - app.Mean
			if cp < 0 {
				cp = 0
			}
			src.setCP(cp)
			dst.setCP(dst.CP() + app.Mean)
			src.smoother.Bias(-app.Mean)
			dst.smoother.Bias(app.Mean)
		}

		// Migration cost lands on next tick's demand at both endpoints.
		src.migCost += c.Cfg.MigCostWatts
		dst.migCost += c.Cfg.MigCostWatts

		from := src.Node.ServerIndex
		to := dst.Node.ServerIndex
		if rec, ok := c.lastLeft[app.ID]; ok && rec.from == to && t-rec.tick <= c.Cfg.PingPongWindow {
			c.Stats.PingPongs++
		}
		c.lastLeft[app.ID] = leftRecord{from: from, tick: t}

		m := Migration{
			Tick:  t,
			AppID: app.ID,
			From:  from,
			To:    to,
			Watts: app.Mean,
			Bytes: app.MigrationBytes(),
			Cause: cause,
			Local: topo.IsLocal(src.Node, dst.Node),
			Hops:  c.Tree.HopCount(src.Node, dst.Node),
		}
		c.Stats.Migrations = append(c.Stats.Migrations, m)
		switch cause {
		case CauseDemand:
			c.Stats.DemandMigrations++
		case CauseConsolidation:
			c.Stats.ConsolidationMigrations++
		}
		if m.Local {
			c.Stats.LocalMigrations++
		}
		// The migration directive reaches both endpoints over their tree
		// links, batched with any budget update issued this window.
		c.countDown(&c.down, src.Node)
		c.countDown(&c.down, dst.Node)
		c.publishMigration(m)
	}
}

// drainToSleep handles demand that fits nowhere because the facility as a
// whole is short on budget: as long as the root budget cannot cover the
// awake servers' static floors plus the total dynamic demand, it drains
// the lightest awake server into the others' *physical* headroom and puts
// it to sleep, shedding its static draw. Several servers may sleep in one
// pass (a deep overnight deficit can need many). Budgets are re-derived
// immediately afterwards and the unplaced items retried. It returns the
// items that remain unplaced.
func (c *Controller) drainToSleep(unplaced []item, t int) []item {
	rootTP := c.pmuTP[c.Tree.Root.ID]
	drained := map[*Server]bool{}
	for {
		awake := c.awakeServers()
		if len(awake) <= 1 {
			break
		}
		var floors, dynamic float64
		var victim *Server
		for _, s := range awake {
			if !c.pendingSleep[s.Node.ServerIndex] {
				// Pending sleeps free their static draw as soon as their
				// transfers land; count the projected floors.
				floors += s.Power.Static
			}
			dynamic += c.viewDynamic(s)
			if c.draining[s.Node.ServerIndex] || c.transferTouches(s) {
				continue
			}
			if c.failedPMUCount > 0 && c.underDeadPMU(s.Node) {
				continue // cannot coordinate a drain across a dead span
			}
			if victim == nil || c.viewDynamic(s) < c.viewDynamic(victim) {
				victim = s
			}
		}
		if floors+dynamic <= rootTP+tolerance {
			// The budget covers everything once re-derived; the unplaced
			// items stem from caps or margins, which sleeping cannot fix.
			break
		}
		if victim == nil {
			break
		}

		// Place the victim's applications into the others' physical
		// headroom (hard cap minus current demand): budgets are about to
		// be re-derived, so budget surpluses are not the constraint here.
		ws := c.ws.reset(len(c.Servers))
		for _, s := range awake {
			if s == victim || c.draining[s.Node.ServerIndex] {
				continue
			}
			if c.failedPMUCount > 0 && c.underDeadPMU(s.Node) {
				continue
			}
			room := s.HardCap() - c.viewCP(s) - c.Cfg.PMin - c.reservedFor(s)
			if room > tolerance {
				ws.add(s.Node.ServerIndex, room)
			}
		}
		items := make([]item, 0, victim.Apps.Len())
		for _, a := range victim.Apps.Apps {
			items = append(items, item{app: a, src: victim})
		}
		c.draining[victim.Node.ServerIndex] = true
		plan, rest := c.planPlacement(items, ws, true, false)
		if len(rest) > 0 {
			// Cannot fully drain the lightest server: stop trying.
			delete(c.draining, victim.Node.ServerIndex)
			break
		}
		c.applyAssignments(plan, CauseDemand, t)
		delete(c.draining, victim.Node.ServerIndex)
		c.sleepOrDefer(victim)
		drained[victim] = true
	}
	if len(drained) == 0 {
		return unplaced
	}
	c.allocateResilient(t, false) // re-derive budgets with the freed static power

	// The original unplaced items may now fit: retry against fresh
	// budget surpluses.
	ws := c.workingSurpluses()
	var still []item
	for _, it := range unplaced {
		if drained[it.src] {
			continue // its demand moved with the drain
		}
		still = append(still, it)
	}
	plan, rest := c.planPlacement(still, ws, false, false)
	c.applyAssignments(plan, CauseDemand, t)
	return rest
}

// tryWake schedules the most capable sleeping server to wake when demand
// cannot be placed and the root budget has headroom for its static draw.
func (c *Controller) tryWake(t int) {
	rootTP := c.pmuTP[c.Tree.Root.ID]
	rootCP := c.pmuCP[c.Tree.Root.ID]
	var pick *Server
	for _, s := range c.Servers {
		if !s.Asleep() || s.failed {
			continue
		}
		if c.failedPMUCount > 0 && c.underDeadPMU(s.Node) {
			continue // no coordinator to direct demand its way once awake
		}
		if s.wakeAt >= 0 {
			return // a wake is already in flight; avoid thundering herds
		}
		if rootTP-rootCP < s.Power.Static+c.Cfg.PMin {
			continue // no budget headroom to even idle it
		}
		if pick == nil || s.Power.Peak > pick.Power.Peak {
			pick = s
		}
	}
	if pick != nil {
		pick.wakeAt = t + c.Cfg.WakeLatency
	}
}

// awakeServers returns the servers currently on.
func (c *Controller) awakeServers() []*Server {
	out := make([]*Server, 0, len(c.Servers))
	for _, s := range c.Servers {
		if !s.Asleep() {
			out = append(out, s)
		}
	}
	return out
}
