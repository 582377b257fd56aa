package core

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
)

// allocateResilient implements the supply-side adaptation of Section
// IV-D: the available budget is divided top-down, at each node
// proportionally to the children's smoothed demands, subject to each
// child's hard constraints (thermal + circuit caps). Budget that capped
// children cannot absorb is redistributed to their siblings (waterfill);
// leftover beyond all demands is allocated proportionally to demand as
// well ("if surplus is still available ... the surplus budget is
// allocated to its children nodes proportional to their demand").
// Supply traces are indexed by supply epoch (t / η1), so a 30-entry trace
// spans 30 supply windows regardless of η1.
//
// Each node's reduced flag records whether this event lowered its budget;
// the demand side uses it to enforce the unidirectional rule.
//
// It is the only allocation pass, and it divides budget down the live
// portion of the tree. window turns on the lease bookkeeping of a real
// supply window (Δ_S, degraded.go): directives pass through the budget
// pipes, draw loss, refresh leases, and the nodes that heard nothing
// age and decay. Step sets it only while the resilient control plane is
// armed (resilienceEnabled); mid-tick re-derivations (drain-to-sleep,
// consolidation, transfer landing) always pass false, delivering
// directly and leaving every lease untouched. With window false and no
// PMU failed, every node hears its directive and the pass is the
// paper's fail-free division.
//
// The pass runs in three stages, top-down:
//
//  1. If the root is alive it takes the fresh supply and recurses
//     through alive PMUs, delivering directives along the way.
//  2. Alive internal nodes that heard nothing — parent dead, or their
//     directive lost or still in a pipe — age their lease (entering
//     degraded mode and decaying toward their floor when it expires)
//     and then allocate their held budget to their children
//     autonomously. Levels are visited root-down so an autonomous
//     node's own directives land before its children are examined.
//  3. Awake servers that heard nothing age their leases the same way.
func (c *Controller) allocateResilient(t int, window bool) {
	clear(c.delivered)
	c.sumSubtrees()

	if root := c.Tree.Root; !c.failedPMU[root.ID] {
		// The root draws straight from the supply feed; its lease is
		// perpetually fresh and it can never be degraded.
		c.grantPMU(root, c.Supply.At(t/c.Cfg.Eta1), 0, t, window)
	}

	for level := c.Tree.Height; level >= 1; level-- {
		for _, n := range c.levels[level] {
			if c.delivered[n.ID] || c.failedPMU[n.ID] {
				continue
			}
			if window {
				c.agePMULease(n, t)
			}
			c.allocateChildren(n, t, window)
		}
	}

	if !window {
		return
	}
	for _, s := range c.Servers {
		if !c.delivered[s.Node.ID] && !s.Asleep() {
			c.ageServerLease(s, t)
		}
	}
}

// allocateChildren divides node's held budget among its children and
// delivers the shares as directives.
func (c *Controller) allocateChildren(node *topo.Node, t int, window bool) {
	if node.IsLeaf() {
		return
	}
	budget := c.pmuTP[node.ID]
	alloc := c.computeChildAllocations(node, budget)
	for i, ch := range node.Children {
		c.deliverBudget(ch, alloc[i], budget, t, window)
	}
}

// deliverBudget sends one downward budget directive over the link to ch,
// through the budget pipe (latency, loss) on lease-bookkeeping windows.
// A delivered directive applies the budget and publishes the
// BudgetChange event; on a window it also refreshes the child's lease
// and clears degradation. An undelivered one leaves the child to the
// autonomous stages of allocateResilient. Directives to dead PMUs go
// nowhere.
func (c *Controller) deliverBudget(ch *topo.Node, v, parentTP float64, t int, window bool) {
	if !ch.IsLeaf() && c.failedPMU[ch.ID] {
		return // a dead PMU hears nothing; its span rides its leases
	}
	c.countDown(ch)
	msg := budgetMsg{tp: v, parentTP: parentTP, ok: true}
	if window && (c.Cfg.BudgetLatency > 0 || c.Cfg.BudgetLoss > 0) {
		if c.Cfg.BudgetLoss > 0 && c.src.Float64() < c.Cfg.BudgetLoss {
			msg.ok = false
		}
		msg = c.budgetPipeFor(ch).push(msg)
	}
	if !msg.ok {
		return // lost in transit: the child's lease ages
	}
	if !ch.IsLeaf() {
		c.grantPMU(ch, msg.tp, msg.parentTP, t, window)
		return
	}
	c.delivered[ch.ID] = true
	s := c.Servers[ch.ServerIndex]
	prev := s.TP()
	s.reduced = c.isReduced(msg.tp, prev, s.CP())
	s.setTP(msg.tp)
	if window {
		s.leaseTick = t
		s.lastParentTP = msg.parentTP
		c.clearServerDegraded(s, t)
	}
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindBudgetChange,
			Node: ch.ID, Level: ch.Level, Server: ch.ServerIndex,
			Watts: msg.tp, Prev: prev, Demand: s.CP(),
			Reduced: s.reduced,
		})
	}
}

// grantPMU applies a budget heard by the live PMU n — the supply for
// the root, a delivered directive for any other — and divides it among
// n's children. parentTP is the parent's budget the directive carried.
func (c *Controller) grantPMU(n *topo.Node, tp, parentTP float64, t int, window bool) {
	id := n.ID
	c.delivered[id] = true
	prev := c.pmuTP[id]
	c.pmuReduced[id] = c.isReduced(tp, prev, c.pmuCP[id])
	c.pmuTP[id] = tp
	if window {
		c.pmuLeaseTick[id] = t
		c.pmuLastParentTP[id] = parentTP
		c.clearPMUDegraded(n, t)
	}
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindBudgetChange,
			Node: id, Level: n.Level,
			Watts: tp, Prev: prev, Demand: c.pmuCP[id],
			Reduced: c.pmuReduced[id],
		})
	}
	c.allocateChildren(n, t, window)
}

// isReduced implements the unidirectional rule's trigger: a node counts
// as "budget reduced by the event" when the new budget is lower than
// before AND leaves the node without comfortable headroom over its
// demand. A node whose budget shrank in watts but still exceeds demand by
// the P_min margin can absorb migrations — which is how the paper's own
// experiments route work toward lightly loaded servers during a global
// supply plunge (Section V-C4).
func (c *Controller) isReduced(newTP, oldTP, cp float64) bool {
	return newTP < oldTP-tolerance && newTP < cp+c.Cfg.PMin-tolerance
}

// computeChildAllocations runs the three allocation rounds for one
// internal node and returns the per-child budgets (backed by the node's
// scratch buffer — valid until the next call for the same node). Fresh
// directives and degraded autonomous allocation both divide budget
// through here, so the two are arithmetically identical.
func (c *Controller) computeChildAllocations(node *topo.Node, budget float64) []float64 {
	children := node.Children
	sc := c.scratch[node.ID]
	demands, caps, floors := sc.demands, sc.caps, sc.floors
	var floorSum float64
	for i, ch := range children {
		demands[i] = c.demandOf(ch)
		cap, f := c.capFloor(ch)
		if f > cap {
			f = cap
		}
		caps[i] = cap
		floors[i] = f
		floorSum += f
	}

	// Budget-division seam: a bound policy may take over the division
	// entirely (core still clamps the result into the hard envelope); a
	// declining policy falls through to the paper's three rounds below.
	if c.pol != nil && c.pol.DivideBudget(node.Level, budget, demands, caps, floors, sc.alloc) {
		clampDivision(sc.alloc, budget, caps)
		return sc.alloc
	}

	// Round 0: static floors. An awake server draws its static power no
	// matter what, so floors are funded before any dynamic demand. If
	// even the floors exceed the budget the children split it floor-
	// proportionally — a regime only escapable by putting servers to
	// sleep, which the demand side's drain-to-sleep path handles.
	alloc := sc.alloc
	if floorSum > budget {
		waterfill(alloc, budget, floors, floors, sc.active)
		return alloc
	}
	copy(alloc, floors)
	remaining := budget - floorSum

	// Round A: meet dynamic demand above the floors, proportionally
	// (waterfill handles children whose caps bind).
	dynWants := sc.wants
	var dynSum float64
	for i := range children {
		w := demands[i]
		if w > caps[i] {
			w = caps[i]
		}
		w -= floors[i]
		if w < 0 {
			w = 0
		}
		dynWants[i] = w
		dynSum += w
	}
	leftover := remaining
	if dynSum <= remaining {
		for i := range alloc {
			alloc[i] += dynWants[i]
		}
		leftover = remaining - dynSum
	} else {
		extra := waterfill(sc.extra, remaining, dynWants, dynWants, sc.active)
		for i := range alloc {
			alloc[i] += extra[i]
		}
		leftover = 0
	}

	// Round B: distribute leftover proportionally to demand up to the
	// hard caps. Budget beyond every cap stays stranded at this node.
	if leftover > tolerance {
		head := sc.head
		for i := range children {
			head[i] = caps[i] - alloc[i]
		}
		extra := waterfill(sc.extra, leftover, demands, head, sc.active)
		for i := range alloc {
			alloc[i] += extra[i]
		}
	}

	return alloc
}

// sumSubtrees refreshes every internal node's subtree hard cap and
// static floor in one bottom-up pass, run once per allocation pass
// before any budget is divided. Each node sums its children in child
// order from zero — the order a recursive descent adds them in, and the
// order aggregate() uses for demand — so every sum is bit-identical to
// recursing through the subtree at each level, at a single visit per
// node. Nothing an allocation pass does (budgets, reduced flags, lease
// state) moves a hard cap or a sleep flag, so the sums hold for the
// whole pass.
func (c *Controller) sumSubtrees() {
	for level := 1; level <= c.Tree.Height; level++ {
		for _, n := range c.levels[level] {
			var cap, floor float64
			for _, ch := range n.Children {
				chCap, chFloor := c.capFloor(ch)
				cap += chCap
				floor += chFloor
			}
			c.subCap[n.ID], c.subFloor[n.ID] = cap, floor
		}
	}
}

// capFloor returns a node's hard constraint and static floor as its
// parent divides budget: for a server its hard cap and static power, for
// a PMU the sums over its subtree from the current sumSubtrees pass.
// Sleeping servers contribute nothing — they cannot spend budget and
// burn no static power. A server's figures come off the slab: its
// cached hard cap is the one for Cfg.ThermalWindow (see fleetHot).
func (c *Controller) capFloor(n *topo.Node) (cap, floor float64) {
	if !n.IsLeaf() {
		return c.subCap[n.ID], c.subFloor[n.ID]
	}
	h, i := c.hot, n.ServerIndex
	if h.asleep[i] {
		return 0, 0
	}
	return h.hardCap[i], h.static[i]
}
