package core

import (
	"willow/internal/telemetry"
	"willow/internal/topo"
)

// Resilient control plane: budget leases and degraded autonomous mode.
//
// The paper's convergence analysis assumes the control hierarchy itself
// never fails; failure.go removed that assumption for servers, async.go
// for the upward report path. This file removes it for the rest: the
// downward budget path (Config.BudgetLatency / BudgetLoss mirror the
// report pipes) and the PMU nodes themselves (Controller.FailPMU).
//
// Every downward budget directive doubles as a lease of
// Config.BudgetLeaseTicks. A node — server or PMU — that has not heard
// from its parent within the lease enters degraded mode: it holds its
// last-known budget and decays it geometrically per supply window toward
// an autonomous safe floor, so staleness buys safety rather than
// overdraw. The floor is what the node can justify without any parent:
//
//	server:  min(hard cap, static + lastParentTP / siblings)
//	PMU:     min(subtree cap, subtree floor + lastParentTP / siblings)
//
// where lastParentTP is the parent budget reported with the last heard
// directive (its "fair share" is an equal split among the siblings).
// The hard caps — Eq. 3 thermal limit and circuit limit — always bound
// the held budget, so a degraded subtree can never exceed them. Budgets
// below the floor are never raised: degradation only ever sheds.
//
// An alive PMU keeps issuing directives to its children every supply
// window no matter what it hears from above (using its held, possibly
// decayed budget), so a single dead ancestor degrades exactly the nodes
// that lost their coordinator — the dead PMU's direct children — while
// deeper descendants stay fresh under local, autonomous control.
//
// With BudgetLeaseTicks, BudgetLatency and BudgetLoss all zero and no
// PMU failed, none of this code runs: allocation takes the synchronous
// path in allocate.go, byte-identical to the fail-free control plane.

// budgetMsg is one downward budget directive in flight.
type budgetMsg struct {
	tp       float64 // the child's granted budget
	parentTP float64 // the parent's own budget at grant time (fair-share input)
	ok       bool    // false: the slot carries a loss, nothing is delivered
}

// budgetPipe delays budget directives by a fixed number of supply
// windows, the downward mirror of reportPipe. Losses travel through the
// pipe as not-ok slots: the child hears nothing when they surface.
type budgetPipe struct {
	buf  []budgetMsg // ring of in-flight directives; len = BudgetLatency
	head int
	live bool
}

// push enqueues a directive and returns the one surfacing after the
// pipe's delay. The first push primes the whole pipe (startup is not a
// burst of phantom losses).
func (p *budgetPipe) push(m budgetMsg) budgetMsg {
	if !p.live {
		for i := range p.buf {
			p.buf[i] = m
		}
		p.live = true
	}
	if len(p.buf) == 0 {
		return m
	}
	out := p.buf[p.head]
	p.buf[p.head] = m
	p.head = (p.head + 1) % len(p.buf)
	return out
}

// budgetPipeFor returns (creating on demand) the budget pipe of the link
// between n and its parent.
func (c *Controller) budgetPipeFor(n *topo.Node) *budgetPipe {
	p := c.budgetPipes[n.ID]
	if p == nil {
		p = &budgetPipe{buf: make([]budgetMsg, c.Cfg.BudgetLatency)}
		c.budgetPipes[n.ID] = p
	}
	return p
}

// SetLinkLoss adjusts the per-link control-plane loss probabilities at
// runtime — the chaos engine's link-loss windows drive it. Values are
// clamped into [0, 1).
func (c *Controller) SetLinkLoss(report, budget float64) {
	c.Cfg.ReportLoss = clampLoss(report)
	c.Cfg.BudgetLoss = clampLoss(budget)
}

func clampLoss(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 1 - 1e-9
	}
	return v
}

// resilienceEnabled reports whether the resilient allocation path must
// run. False means the fail-free synchronous path, byte-identical to
// the pre-lease controller.
func (c *Controller) resilienceEnabled() bool {
	return c.Cfg.BudgetLeaseTicks > 0 || c.Cfg.BudgetLatency > 0 ||
		c.Cfg.BudgetLoss > 0 || c.failedPMUCount > 0
}

// underDeadPMU reports whether any ancestor PMU of n has crashed — such
// a node cannot be coordinated with by the rest of the hierarchy.
func (c *Controller) underDeadPMU(n *topo.Node) bool {
	if c.failedPMUCount == 0 {
		return false
	}
	for a := n.Parent; a != nil; a = a.Parent {
		if c.failedPMU[a.ID] {
			return true
		}
	}
	return false
}

// reachLimit returns the highest tree level whose coordinator n can
// still reach through alive PMUs — the ceiling for migration escalation
// and orphan-restart scope. Zero means even the level-1 parent is dead:
// no migration machinery is available to the node at all.
func (c *Controller) reachLimit(n *topo.Node) int {
	limit := 0
	for a := n.Parent; a != nil && !c.failedPMU[a.ID]; a = a.Parent {
		limit = a.Level
	}
	return limit
}

// allocateSupplyWindow is the Δ_S-cadence entry point called from Step.
// The mid-tick re-derivations (drain-to-sleep, consolidation) go through
// allocateSupply instead: they refresh budgets synchronously within the
// live span without advancing pipes, drawing loss, or aging leases.
func (c *Controller) allocateSupplyWindow(t int) {
	if !c.resilienceEnabled() {
		c.allocateSupply(t)
		return
	}
	c.allocateResilient(t, true)
}

// allocateResilient divides budget down the live portion of the tree.
// window marks a real supply window (Δ_S): only then do directives pass
// through the budget pipes, draw loss, refresh leases and age/decay the
// nodes that heard nothing. Mid-tick re-derivations (window = false)
// deliver directly and leave all lease state untouched.
//
// The pass runs in three stages, top-down:
//
//  1. If the root is alive it takes the fresh supply and recurses
//     through alive PMUs, delivering leases along the way.
//  2. Alive internal nodes that heard nothing this window — parent dead,
//     or their directive lost or still in a pipe — age their lease
//     (entering degraded mode and decaying toward their floor when it
//     expires) and then allocate their held budget to their children
//     autonomously. Levels are visited root-down so an autonomous
//     node's own directives land before its children are examined.
//  3. Awake servers that heard nothing age their leases the same way.
func (c *Controller) allocateResilient(t int, window bool) {
	if len(c.delivered) < len(c.Tree.Nodes) {
		c.delivered = make([]bool, len(c.Tree.Nodes))
	} else {
		clear(c.delivered)
	}
	c.sumSubtrees()

	root := c.Tree.Root
	if !c.failedPMU[root.ID] {
		id := root.ID
		total := c.Supply.At(t / c.Cfg.Eta1)
		prev := c.pmuTP[id]
		c.pmuReduced[id] = c.isReduced(total, prev, c.pmuCP[id])
		c.pmuTP[id] = total
		if window {
			// The root draws straight from the supply feed; its lease is
			// perpetually fresh and it can never be degraded.
			c.pmuLeaseTick[id] = t
			c.clearPMUDegraded(root, t)
		}
		c.delivered[id] = true
		if c.Sink != nil {
			c.publish(telemetry.Event{
				Tick: t, Kind: telemetry.KindBudgetChange,
				Node: id, Level: root.Level,
				Watts: total, Prev: prev, Demand: c.pmuCP[id],
				Reduced: c.pmuReduced[id],
			})
		}
		c.allocateNodeR(root, total, t, window)
	}

	for level := c.Tree.Height; level >= 1; level-- {
		for _, n := range c.levels[level] {
			if c.delivered[n.ID] || c.failedPMU[n.ID] {
				continue
			}
			if window {
				c.agePMULease(n, t)
			}
			c.allocateNodeR(n, c.pmuTP[n.ID], t, window)
		}
	}

	for _, s := range c.Servers {
		if c.delivered[s.Node.ID] || s.Asleep() {
			continue
		}
		if window {
			c.ageServerLease(s, t)
		}
	}
}

// allocateNodeR computes node's child allocations (identically to the
// synchronous path) and delivers them as leases.
func (c *Controller) allocateNodeR(node *topo.Node, budget float64, t int, window bool) {
	if node.IsLeaf() {
		return
	}
	alloc := c.computeChildAllocations(node, budget)
	parentTP := c.pmuTP[node.ID]
	for i, ch := range node.Children {
		c.deliverBudget(ch, alloc[i], parentTP, t, window)
	}
}

// deliverBudget sends one downward budget directive over the link to ch,
// through the budget pipe (latency, loss) on real supply windows. A
// delivered directive applies the budget, refreshes the child's lease
// and clears degradation; an undelivered one leaves the child to the
// autonomous pass. Directives to dead PMUs go nowhere.
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
	c.delivered[ch.ID] = true

	if ch.IsLeaf() {
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
		return
	}
	id := ch.ID
	prev := c.pmuTP[id]
	c.pmuReduced[id] = c.isReduced(msg.tp, prev, c.pmuCP[id])
	c.pmuTP[id] = msg.tp
	if window {
		c.pmuLeaseTick[id] = t
		c.pmuLastParentTP[id] = msg.parentTP
		c.clearPMUDegraded(ch, t)
	}
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindBudgetChange,
			Node: id, Level: ch.Level,
			Watts: msg.tp, Prev: prev, Demand: c.pmuCP[id],
			Reduced: c.pmuReduced[id],
		})
	}
	c.allocateNodeR(ch, msg.tp, t, window)
}

// ageServerLease checks an undelivered server's lease at a supply window
// and, once expired, enters degraded mode and decays the held budget
// geometrically toward the autonomous safe floor. Budgets at or below
// the floor are held, never raised.
func (c *Controller) ageServerLease(s *Server, t int) {
	lease := c.Cfg.BudgetLeaseTicks
	if lease <= 0 || t-s.leaseTick <= lease {
		return
	}
	entered := !s.Degraded()
	if entered {
		s.setDegraded(true)
		c.Stats.LeaseExpiries++
	}
	floor := c.serverFloor(s)
	prev := s.TP()
	if prev > floor {
		s.setTP(floor + c.Cfg.DegradedDecay*(prev-floor))
	}
	s.reduced = c.isReduced(s.TP(), prev, s.CP())
	if entered && c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: s.Node.ID, Server: s.Node.ServerIndex,
			Cause: "enter", Watts: s.TP(), Prev: prev,
		})
	}
}

// agePMULease is ageServerLease for internal nodes.
func (c *Controller) agePMULease(n *topo.Node, t int) {
	lease := c.Cfg.BudgetLeaseTicks
	if lease <= 0 || t-c.pmuLeaseTick[n.ID] <= lease {
		return
	}
	id := n.ID
	entered := !c.pmuDegraded[id]
	if entered {
		c.pmuDegraded[id] = true
		c.Stats.LeaseExpiries++
	}
	floor := c.pmuFloor(n)
	prev := c.pmuTP[id]
	if prev > floor {
		c.pmuTP[id] = floor + c.Cfg.DegradedDecay*(prev-floor)
	}
	c.pmuReduced[id] = c.isReduced(c.pmuTP[id], prev, c.pmuCP[id])
	if entered && c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: id, Level: n.Level,
			Cause: "enter", Watts: c.pmuTP[id], Prev: prev,
		})
	}
}

// clearServerDegraded exits degraded mode on a freshly delivered lease.
func (c *Controller) clearServerDegraded(s *Server, t int) {
	if !s.Degraded() {
		return
	}
	s.setDegraded(false)
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: s.Node.ID, Server: s.Node.ServerIndex,
			Cause: "exit", Watts: s.TP(),
		})
	}
}

// clearPMUDegraded is clearServerDegraded for internal nodes.
func (c *Controller) clearPMUDegraded(n *topo.Node, t int) {
	if !c.pmuDegraded[n.ID] {
		return
	}
	c.pmuDegraded[n.ID] = false
	if c.Sink != nil {
		c.publish(telemetry.Event{
			Tick: t, Kind: telemetry.KindDegraded,
			Node: n.ID, Level: n.Level,
			Cause: "exit", Watts: c.pmuTP[n.ID],
		})
	}
}

// serverFloor is the server's autonomous safe floor: what it can justify
// drawing with no parent to hear from — its static power plus an equal
// split of the last-known parent budget among the siblings, never above
// the hard cap (Eq. 3 thermal limit, circuit limit, rated peak).
func (c *Controller) serverFloor(s *Server) float64 {
	floor := s.Power.Static + c.fairShare(s.Node, s.lastParentTP)
	if cap := s.HardCap(c.Cfg.ThermalWindow); cap < floor {
		floor = cap
	}
	return floor
}

// pmuFloor is serverFloor lifted to a subtree: summed static floors plus
// the node's fair share of the last-known parent budget, capped by the
// subtree's summed hard caps (both from the current sumSubtrees pass).
func (c *Controller) pmuFloor(n *topo.Node) float64 {
	floor := c.subFloor[n.ID] + c.fairShare(n, c.pmuLastParentTP[n.ID])
	if cap := c.subCap[n.ID]; cap < floor {
		floor = cap
	}
	return floor
}

// fairShare splits a parent budget equally among n's siblings (and n).
func (c *Controller) fairShare(n *topo.Node, parentTP float64) float64 {
	if n.Parent == nil || parentTP <= 0 {
		return 0
	}
	return parentTP / float64(len(n.Parent.Children))
}
