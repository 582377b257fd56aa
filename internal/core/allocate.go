package core

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
)

// allocateSupply implements the supply-side adaptation of Section IV-D:
// every Δ_S the available budget is divided top-down, at each node
// proportionally to the children's smoothed demands, subject to each
// child's hard constraints (thermal + circuit caps). Budget that capped
// children cannot absorb is redistributed to their siblings (waterfill);
// leftover beyond all demands is allocated proportionally to demand as
// well ("if surplus is still available ... the surplus budget is
// allocated to its children nodes proportional to their demand").
//
// Each node's reduced flag records whether this event lowered its budget;
// the demand side uses it to enforce the unidirectional rule.
// Supply traces are indexed by supply epoch (t / η1), so a 30-entry trace
// spans 30 supply windows regardless of η1.
func (c *Controller) allocateSupply(t int) {
	if c.resilienceEnabled() {
		// Mid-tick re-derivation under the resilient control plane:
		// refresh budgets directly within the live span, without
		// advancing pipes or touching lease state (degraded.go).
		c.allocateResilient(t, false)
		return
	}
	c.sumSubtrees()
	rootID := c.Tree.Root.ID
	total := c.Supply.At(t / c.Cfg.Eta1)
	prev := c.pmuTP[rootID]
	c.pmuReduced[rootID] = c.isReduced(total, prev, c.pmuCP[rootID])
	c.pmuTP[rootID] = total
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindBudgetChange,
			Node: rootID, Level: c.Tree.Root.Level,
			Watts: total, Prev: prev, Demand: c.pmuCP[rootID],
			Reduced: c.pmuReduced[rootID],
		})
	}
	c.allocateNode(c.Tree.Root, total)
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

// allocateNode divides budget among node's children and recurses.
func (c *Controller) allocateNode(node *topo.Node, budget float64) {
	if node.IsLeaf() {
		return
	}
	c.assignChildBudgets(node.Children, c.computeChildAllocations(node, budget))
}

// computeChildAllocations runs the three allocation rounds for one
// internal node and returns the per-child budgets (backed by the node's
// scratch buffer — valid until the next call for the same node). Both
// the synchronous path (allocateNode) and the resilient path
// (allocateNodeR, degraded.go) divide budget through here, so degraded
// autonomous allocation is arithmetically identical to the paper's.
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

// assignChildBudgets stores the computed budgets, maintains reduced
// flags, counts the downward directive messages, publishes the
// per-node BudgetChange events, and recurses.
func (c *Controller) assignChildBudgets(children []*topo.Node, alloc []float64) {
	for i, ch := range children {
		c.countDown(ch) // parent -> child budget directive
		if ch.IsLeaf() {
			s := c.Servers[ch.ServerIndex]
			prev := s.TP()
			s.reduced = c.isReduced(alloc[i], prev, s.CP())
			s.setTP(alloc[i])
			if c.Sink != nil {
				c.publish(telemetry.Event{
					Tick: c.tick, Kind: telemetry.KindBudgetChange,
					Node: ch.ID, Level: ch.Level, Server: ch.ServerIndex,
					Watts: alloc[i], Prev: prev, Demand: s.CP(),
					Reduced: s.reduced,
				})
			}
			continue
		}
		prev := c.pmuTP[ch.ID]
		c.pmuReduced[ch.ID] = c.isReduced(alloc[i], prev, c.pmuCP[ch.ID])
		c.pmuTP[ch.ID] = alloc[i]
		if c.Sink != nil {
			c.publish(telemetry.Event{
				Tick: c.tick, Kind: telemetry.KindBudgetChange,
				Node: ch.ID, Level: ch.Level,
				Watts: alloc[i], Prev: prev, Demand: c.pmuCP[ch.ID],
				Reduced: c.pmuReduced[ch.ID],
			})
		}
		c.allocateNode(ch, alloc[i])
	}
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
// burn no static power.
func (c *Controller) capFloor(n *topo.Node) (cap, floor float64) {
	if !n.IsLeaf() {
		return c.subCap[n.ID], c.subFloor[n.ID]
	}
	if c.hot.asleep[n.ServerIndex] {
		return 0, 0
	}
	s := c.Servers[n.ServerIndex]
	return s.HardCap(c.Cfg.ThermalWindow), s.Power.Static
}
